"""Evaluation utilities: exact nearest-neighbor queries, dictionary-based
precision@k, mode-collapse statistics, distribution-match reports, and a
synthetic benchmark generator with known ground truth.

The synthetic benchmark draws a source cloud from a Gaussian mixture and
produces the target cloud by applying a hidden random orthogonal map (plus
optional noise), so the correct mapping is known exactly and the evaluation
pipeline can be validated end to end.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .embed_io import EmbeddingTable, Vocabulary
from .layers import _row_norms
from .models import Discriminator, init_semi_orthogonal
from .numerics import Rng


# Similarities per GEMM block in ``_scored_blocks`` (8 MB of float64) and per
# partition in ``_top_k`` (64 KB), whatever m is.
KNN_BLOCK, PARTITION_BLOCK = 1 << 20, 1 << 13


class BilingualDictionary:
    """Source token -> set of acceptable target tokens."""

    def __init__(self, entries: dict):
        if not entries:
            raise ValueError("dictionary must be non-empty")
        self.entries = {src: frozenset(tgts) for src, tgts in entries.items()}
        for src, tgts in self.entries.items():
            if not tgts:
                raise ValueError(f"no targets for source token {src!r}")

    @classmethod
    def load(cls, path) -> "BilingualDictionary":
        entries: dict = {}
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != 2:
                    raise ValueError(f"{path}:{lineno}: expected 'src<TAB>tgt'")
                entries.setdefault(parts[0], set()).add(parts[1])
        if not entries:
            raise ValueError(f"{path}: empty dictionary")
        return cls(entries)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for src in sorted(self.entries):
                for tgt in sorted(self.entries[src]):
                    fh.write(f"{src}\t{tgt}\n")


def knn(queries: EmbeddingTable, tgt: EmbeddingTable, k: int):
    """Exact top-k rows of the table ``tgt`` by cosine similarity for each row
    of the table ``queries``: ``(rows, sims)``, both (m x k), similarities
    non-increasing along each row. Ties break by ascending target row index,
    so results are deterministic. The similarities are ``_scored_blocks``';
    a target row with no direction ranks last, in row order, scoring NaN."""
    size = len(tgt.vocab)
    if not 1 <= k <= size:
        raise ValueError(f"k={k} outside [1, {size}]")
    rows = np.empty((len(queries.vocab), k), dtype=np.intp)
    sims = np.empty((len(queries.vocab), k))
    for block, scores in _scored_blocks(queries, tgt):
        rows[block] = _top_k(scores, k)
        sims[block] = np.take_along_axis(scores, rows[block], axis=1)
    sims[sims == -np.inf] = np.nan  # the clip bounds every other score to [-1, 1]
    return rows, sims


def _scored_blocks(queries: EmbeddingTable, tgt: EmbeddingTable):
    """The cosine similarity of each row of the table ``queries`` to each
    row of the table ``tgt``, a block of query rows at a time: ``(block,
    scores)``, ``block`` the slice of query rows and ``scores`` their
    (rows x V) similarities, clipped to [-1, 1], from one GEMM against the
    whole target table. Each table's norms are its ``row_norms()``. A query
    row that is zero or whose norm is not finite is an error naming its
    token (``row_norms("the queries")``). A target row whose norm is zero or
    overflows has no direction: it scores -inf."""
    if queries.dim != tgt.dim:
        raise ValueError(f"queries have d={queries.dim}, the targets d={tgt.dim}")
    q_norms = queries.row_norms("the queries")
    norms = tgt.row_norms()
    blank = np.flatnonzero(~(np.isfinite(norms) & (norms != 0.0)))
    unit = queries.matrix / q_norms[:, None]
    step = max(1, KNN_BLOCK // len(norms))
    for start in range(0, len(unit), step):
        block = slice(start, min(start + step, len(unit)))
        # only the targets in ``blank`` overflow the GEMM or divide by 0 or inf
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            scores = unit[block] @ tgt.matrix.T
            scores /= norms
            np.clip(scores, -1.0, 1.0, out=scores)
            scores[:, blank] = -np.inf
        yield block, scores


def _top_k(scores, k: int):
    """The columns of each row's ``k`` best scores, best first, ties by
    ascending column: the first ``k`` columns of a stable sort of
    ``-scores``. A partition finds each row's k-th best score, and only the
    columns scoring at least that much are ordered. ``scores`` hold no NaN:
    ``knn`` scores the targets with no direction -inf."""
    size = scores.shape[1]
    # a few rows per partition: a copy of the whole block doubles its memory
    kth, step = np.empty(len(scores)), max(1, PARTITION_BLOCK // size)
    for i in range(0, len(scores), step):
        kth[i:i + step] = np.partition(scores[i:i + step], size - k, axis=1)[:, size - k]
    # flat indices: np.nonzero on a 2-d mask takes about 15x as long
    r, c = np.divmod(np.flatnonzero(scores >= kth[:, None]), size)
    counts = np.bincount(r, minlength=len(scores))
    order = np.lexsort((c, -scores[r, c], r))
    first = np.cumsum(counts) - counts
    return c[order][first[:, None] + np.arange(k)]


def precision_at_k(weight: np.ndarray, src: EmbeddingTable, tgt: EmbeddingTable,
                   dictionary: BilingualDictionary, k: int) -> dict:
    """The report ``eval`` prints, ``{"precision": {"p@1": ...}, "resolvable":
    r, "unresolvable": u}``: p@j is the fraction of resolvable entries whose
    top j in ``knn``'s ranking contains an accepted target. That is the
    fraction with fewer than j targets ahead of their best accepted target
    (highest score, then lowest row), counted on ``_scored_blocks``' scores
    with no ranking. ``src`` is mapped whole, as ``src.matrix @ weight``."""
    size = len(tgt.vocab)
    words, accepted, counts = [], [], []
    for src_tok, targets in dictionary.entries.items():
        rows = [tgt.vocab.index(t) for t in targets if t in tgt.vocab]
        if src_tok in src.vocab and rows:
            accepted.extend(rows)
            counts.append(len(rows))
            words.append(src_tok)
    if not words:
        raise ValueError("no resolvable dictionary entries")
    if not 1 <= k <= size:
        raise ValueError(f"k={k} outside [1, {size}]")
    mapped = src.matrix @ weight
    queries = EmbeddingTable(Vocabulary(words), mapped[[src.vocab.index(w) for w in words]])
    # entry i's accepted rows are accepted[bounds[i]:bounds[i + 1]]
    accepted = np.array(accepted, dtype=np.intp)
    bounds = np.concatenate(([0], np.cumsum(counts)))
    owner = np.repeat(np.arange(len(words)), counts)
    ahead = np.empty(len(words), dtype=np.intp)
    for block, scores in _scored_blocks(queries, tgt):
        pairs = slice(bounds[block.start], bounds[block.stop])
        entry, cols = owner[pairs] - block.start, accepted[pairs]
        firsts = bounds[block] - pairs.start
        got = scores[entry, cols]
        best = np.maximum.reduceat(got, firsts)
        row = np.minimum.reduceat(np.where(got == best[entry], cols, size), firsts)
        ahead[block] = np.count_nonzero(scores > best[:, None], axis=1)
        # the targets that tie with the best at a lower row: few, so found
        # by position
        r, c = np.divmod(np.flatnonzero(scores == best[:, None]), size)
        ahead[block] += np.bincount(r[c < row[r]], minlength=len(scores))
    # hits[j - 1]: the entries with fewer than j targets ahead
    hits = np.cumsum(np.bincount(np.minimum(ahead, k), minlength=k + 1)[:k])
    precision = (hits / len(words)).tolist()
    return {
        "precision": {f"p@{j}": p for j, p in enumerate(precision, start=1)},
        "resolvable": len(words),
        "unresolvable": len(dictionary.entries) - len(words),
    }


def collapse_metric(outputs):
    """Mean pairwise cosine similarity plus mean per-dimension spread of the
    rows of a float64 matrix: ``(mean pairwise cosine, mean dim std)``.

    Near-constant generator output shows up as mean pairwise cosine close
    to 1 together with per-dimension standard deviation close to 0. The
    cosine is taken over the nonzero rows; with fewer than 2 of them the
    output has collapsed all the way and the cosine is 1.
    """
    std = float(outputs.std(axis=0).mean())
    norms = _row_norms(outputs)
    nonzero = norms > 0.0
    m = int(nonzero.sum())
    if m < 2:
        return 1.0, std
    # the boolean-index copy only when a row is zero
    unit = (outputs / norms[:, None] if m == len(norms)
            else outputs[nonzero] / norms[nonzero, None])
    s = unit.sum(axis=0)
    # sum over i<j of cos_ij equals (||sum of units||^2 - m) / 2
    mean_cos = (float(s @ s) - m) / (m * (m - 1))
    return float(np.clip(mean_cos, -1.0, 1.0)), std


def monitor_accuracy(p_pos, p_neg) -> float:
    """Fraction of rows a discriminator classifies correctly at threshold
    0.5. A score of exactly 0.5 counts as negative, so the tie case is
    deterministic and an untrained discriminator gets every positive wrong."""
    correct = int(np.sum(p_pos > 0.5)) + int(np.sum(p_neg <= 0.5))
    return correct / (p_pos.size + p_neg.size)


@dataclass(frozen=True)
class SyntheticSpec:
    dim: int = 16
    source_size: int = 2000
    target_size: int = 2000
    components: int = 5
    means_scale: float = 1.0
    cov_scale: float = 1.0
    noise_sigma: float = 0.0
    zipf_exponent: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if min(self.dim, self.source_size, self.target_size, self.components) < 1:
            raise ValueError("dim, sizes and component count must be positive")
        # a comparison with NaN is false: each range check refuses NaN
        if not (math.isfinite(self.means_scale) and math.isfinite(self.cov_scale)):
            raise ValueError("means and covariance scales must be finite")
        if not 0.0 <= self.noise_sigma < math.inf:
            raise ValueError("noise sigma must be finite and >= 0")
        if not -math.inf < self.zipf_exponent <= math.inf:
            raise ValueError("zipf exponent must be a number above -inf")


@dataclass(frozen=True)
class SyntheticData:
    src: EmbeddingTable
    tgt: EmbeddingTable
    src_freq: np.ndarray  # one count per table row
    tgt_freq: np.ndarray
    truth: BilingualDictionary
    map_matrix: np.ndarray


def _zipf_counts(size: int, exponent: float) -> np.ndarray:
    """``max(1, round(1e6 / r ** exponent))`` for the ranks r = 1..size, in
    Python floats; a power beyond the floats counts 1, as at ``--zipf inf``."""
    counts = []
    for r in range(1, size + 1):
        try:
            power = r ** exponent
        except OverflowError:
            power = math.inf
        count = 1e6 / power if power else math.inf  # the power underflowed to 0
        if not count < 2.0 ** 63:  # beyond int64
            raise ValueError(f"zipf exponent {exponent} gives counts beyond int64 "
                             f"at {size} words")
        counts.append(max(1, round(count)))
    return np.array(counts, dtype=np.int64)


def _tokens(prefix: str, size: int) -> list:
    width = max(4, len(str(size)))
    return [f"{prefix}{i + 1:0{width}d}" for i in range(size)]


def synth_generate(spec: SyntheticSpec) -> SyntheticData:
    """Build aligned source/target tables with a hidden orthogonal mapping."""
    rng = Rng(spec.seed, "synth")
    base = max(spec.source_size, spec.target_size)
    means = rng.substream("means").normal(size=(spec.components, spec.dim)) * spec.means_scale
    assign = np.minimum(
        (rng.substream("assign").uniform(size=base) * spec.components).astype(int),
        spec.components - 1,
    )
    cloud = means[assign] + rng.substream("cloud").normal(size=(base, spec.dim)) * spec.cov_scale
    q = init_semi_orthogonal(spec.dim, spec.dim, rng.substream("map"))

    src_matrix = cloud[: spec.source_size]
    tgt_matrix = cloud[: spec.target_size] @ q
    if spec.noise_sigma > 0.0:
        tgt_matrix = tgt_matrix + (
            rng.substream("noise").normal(size=tgt_matrix.shape) * spec.noise_sigma
        )

    src_tokens = _tokens("s", spec.source_size)
    tgt_tokens = _tokens("t", spec.target_size)
    src = EmbeddingTable(Vocabulary(src_tokens), src_matrix)
    tgt = EmbeddingTable(Vocabulary(tgt_tokens), tgt_matrix)
    paired = min(spec.source_size, spec.target_size)
    truth = BilingualDictionary(
        {src_tokens[i]: {tgt_tokens[i]} for i in range(paired)}
    )
    return SyntheticData(src=src, tgt=tgt,
                         src_freq=_zipf_counts(spec.source_size, spec.zipf_exponent),
                         tgt_freq=_zipf_counts(spec.target_size, spec.zipf_exponent),
                         truth=truth, map_matrix=q)


def distribution_match_report(mapped, target_sample, monitor: Discriminator) -> dict:
    """The collapse of the mapped sample (:func:`collapse_metric`), the
    first/second-moment agreement between the two samples, and how well the
    monitoring discriminator can still tell them apart (targets positive,
    mapped rows negative; see :func:`monitor_accuracy`), for samples of one
    dimension with at least 2 rows each, as ``Trainer.evaluate`` draws."""
    mu_m = mapped.mean(axis=0)
    mu_t = target_sample.mean(axis=0)
    tgt_norm = np.linalg.norm(mu_t)
    diff = np.linalg.norm(mu_m - mu_t)
    mean_diff = diff if tgt_norm < 1e-9 else diff / tgt_norm

    cm = _covariance(mapped)
    ct = _covariance(target_sample)
    ct_norm = np.linalg.norm(ct)
    cov_diff = np.linalg.norm(cm - ct)
    cov_error = cov_diff if ct_norm < 1e-12 else cov_diff / ct_norm

    collapse_cos, collapse_std = collapse_metric(mapped)
    return {
        "collapse_cos": collapse_cos,
        "collapse_std": collapse_std,
        "mean_diff": float(mean_diff),
        "cov_frobenius_error": float(cov_error),
        "monitor_accuracy": monitor_accuracy(
            monitor.forward(target_sample, training=False),
            monitor.forward(mapped, training=False)),
    }


def _covariance(x: np.ndarray) -> np.ndarray:
    xc = x - x.mean(axis=0)
    return xc.T @ xc / (x.shape[0] - 1)
