"""The benchmark's side of a run: the program's inputs before it, the
reference checks after it.

Both run in ``run.py``'s process, never in the workload's child, so the
child's peak RSS holds the program and its inputs only. Nothing here is
timed.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from workloads import DICT_ENTRIES, K, NN_WORDS, Workload, synthetic_spec

# Relative tolerance under which two cosine similarities count as equal
# "to rounding"; the program and the reference compute them by different
# formulas, which differ by a few ulps.
SIM_TOL = 1e-9
UNRESOLVABLE = 4


class Inputs:
    """The program's inputs for one workload and seed, written to ``work``:
    two ``.vec`` tables, a dictionary, the query words and, for a
    ``truth`` workload, a checkpoint whose encoder is the synthetic map Q.
    ``manifest`` tells the child where they are."""

    def __init__(self, wl: Workload, seed: int, work: Path):
        from xlingmap.evaluation import BilingualDictionary, synth_generate

        self.data = synth_generate(synthetic_spec(wl, seed))
        src_tokens = self.data.src.vocab.tokens
        tgt_tokens = self.data.tgt.vocab.tokens
        pick = np.random.default_rng([seed, 1])
        rows = pick.choice(wl.vocab, size=DICT_ENTRIES, replace=False)
        entries = {}
        for j, i in enumerate(rows):
            accepted = {tgt_tokens[i]}
            if j % 5 == 0:  # some entries accept a second, unrelated target
                accepted.add(tgt_tokens[int(pick.integers(wl.vocab))])
            entries[src_tokens[i]] = accepted
        for j in range(UNRESOLVABLE):  # entries the evaluation must skip
            entries[f"oov{j}"] = {tgt_tokens[j]}
        self.entries = entries
        self.queries = [src_tokens[i] for i in
                        pick.choice(wl.vocab, size=NN_WORDS, replace=False)]
        self.manifest = {"src": str(work / "src.vec"), "tgt": str(work / "tgt.vec"),
                         "dict": str(work / "dict.tsv"), "queries": self.queries,
                         "checkpoint": None}
        _write_vec(self.data.src, Path(self.manifest["src"]))
        _write_vec(self.data.tgt, Path(self.manifest["tgt"]))
        BilingualDictionary(entries).save(self.manifest["dict"])
        if wl.checkpoint == "truth":
            self.manifest["checkpoint"] = str(self._truth_checkpoint(wl, seed, work))
        (work / "manifest.json").write_text(json.dumps(self.manifest), encoding="utf-8")

    def _truth_checkpoint(self, wl: Workload, seed: int, work: Path) -> Path:
        """A full checkpoint (default discriminator shape) whose encoder is
        the synthetic map Q."""
        from xlingmap import training
        from xlingmap.models import ModelConfig

        cfg = training.TrainConfig(model=ModelConfig(dim=wl.dim), seed=seed)
        d = self.data
        trainer = training.Trainer(cfg, d.src, d.tgt, d.src_freq, d.tgt_freq)
        trainer.encoder.weight.value[...] = d.map_matrix
        path = work / "truth.xlaae"
        trainer.save_checkpoint(path)
        return path


def _write_vec(table, path: Path) -> None:
    """Embedding text file with shortest round-trip values, which parse back
    to the same doubles; faster to write than the program's 17 digits."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(table.vocab)} {table.dim}\n")
        for token, row in zip(table.vocab.tokens, table.matrix.tolist()):
            fh.write(token + " " + " ".join(map(repr, row)) + "\n")


class Reference:
    """Brute-force numpy answers for eval, nn and map under the mapping W."""

    def __init__(self, inp: Inputs, weight: np.ndarray):
        src, tgt = inp.data.src, inp.data.tgt
        self.tgt_index = {t: i for i, t in enumerate(tgt.vocab.tokens)}
        self.unit_tgt = tgt.matrix / np.linalg.norm(tgt.matrix, axis=1)[:, None]
        self.weight = weight
        self.src = src

        resolvable = [(s, a) for s, a in inp.entries.items()
                      if s in src.vocab and any(t in tgt.vocab for t in a)]
        self.resolvable = len(resolvable)
        self.unresolvable = len(inp.entries) - len(resolvable)
        sims = self._sims([s for s, _ in resolvable])
        # For each entry, how many rejected targets certainly rank above the
        # best accepted one, and how many tie with it to rounding.
        self.certain = np.zeros(K + 1, dtype=int)
        self.possible = np.zeros(K + 1, dtype=int)
        for row, (_, accepted) in zip(sims, resolvable):
            acc = np.array([self.tgt_index[t] for t in accepted if t in self.tgt_index])
            best = row[acc].max()
            rejected = np.ones(row.size, dtype=bool)
            rejected[acc] = False
            above = int(np.sum(rejected & (row > best + SIM_TOL)))
            ties = int(np.sum(rejected & (np.abs(row - best) <= SIM_TOL)))
            for kk in range(1, K + 1):
                self.certain[kk] += above + ties < kk
                self.possible[kk] += above < kk
        self.query_sims = dict(zip(inp.queries, self._sims(inp.queries)))

    def _sims(self, tokens):
        rows = self.src.matrix[[self.src.vocab.index(t) for t in tokens]] @ self.weight
        rows /= np.linalg.norm(rows, axis=1)[:, None]
        return rows @ self.unit_tgt.T

    def check(self, command: str, path: Path) -> bool:
        """Whether one command's output (its stdout, or the ``map`` output
        file) is right."""
        if command == "map":
            return self.check_map(path)
        text = path.read_text(encoding="utf-8")
        return self.check_eval(text) if command == "eval" else self.check_nn(text)

    def check_eval(self, text: str) -> bool:
        report = json.loads(text)
        if (report["resolvable"], report["unresolvable"]) != (
            self.resolvable, self.unresolvable
        ):
            return False
        for kk in range(1, K + 1):
            hits = report["precision"][f"p@{kk}"] * self.resolvable
            if abs(hits - round(hits)) > 1e-6:
                return False
            if not self.certain[kk] <= round(hits) <= self.possible[kk]:
                return False
        return True

    def check_nn(self, text: str) -> bool:
        lines = [ln.split("\t") for ln in text.splitlines()]
        got: dict = {}
        for word, rank, token, sim in lines:
            got.setdefault(word, []).append((int(rank), token, float(sim)))
        if list(got) != list(self.query_sims):
            return False
        for word, row in self.query_sims.items():
            answer = got[word]
            kth = np.sort(row)[-K]
            if [r for r, _, _ in answer] != list(range(1, K + 1)):
                return False
            if len({t for _, t, _ in answer}) != K:
                return False
            ref = [row[self.tgt_index[t]] for _, t, _ in answer]
            if any(abs(s - r) > 5e-7 + SIM_TOL for (_, _, s), r in zip(answer, ref)):
                return False
            # the top k up to ties, in order up to swaps of tied neighbours
            if min(ref) < kth - SIM_TOL:
                return False
            if any(a < b - SIM_TOL for a, b in zip(ref, ref[1:])):
                return False
        return True

    def check_map(self, path: Path) -> bool:
        want = self.src.matrix @ self.weight
        tokens = self.src.vocab.tokens
        rows = 0
        with open(path, encoding="utf-8") as fh:
            if fh.readline().split() != [str(len(tokens)), str(want.shape[1])]:
                return False
            for i, line in enumerate(fh):
                parts = line.split(" ")
                if i >= len(tokens) or parts[0] != tokens[i]:
                    return False
                got = np.array(parts[1:], dtype=np.float64)
                tol = 1e-12 * np.maximum(1.0, np.abs(want[i]))
                if not np.all(np.abs(got - want[i]) <= tol):
                    return False
                rows += 1
        return rows == len(tokens)
