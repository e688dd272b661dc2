"""Run one benchmark workload in this process and print its result as the
last line of standard output (JSON).

Started by ``run.py`` as a child process, with BLAS pinned to one thread
and ``src`` on ``PYTHONPATH``, after ``run.py`` has written the program's
inputs to ``--work-dir`` (see ``prepare.py``). This process holds the
program and its inputs and nothing of the benchmark's checks: it writes
every CLI output under ``--work-dir`` and ``run.py`` checks them after it
has exited, so its peak RSS is the program's.

Every workload is the same pipeline at a different shape, repeated until
``--seconds`` have passed (at least once): a training round
(``Trainer.run`` of 200 steps, the same seed every round), then a CLI pass
(one ``eval``, two ``nn`` and two ``map`` calls of
``xlingmap.cli.main``). Alternating the two spreads the samples of every
metric over the whole run, so a slow spell of a shared machine weighs on
all of them alike.

    python3 perfbench/workloads.py --workload train-deen-gan --seed 1 \\
        --seconds 5 --work-dir DIR [--spans spans.jsonl]
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from speed import Speed

clock = time.perf_counter

SETUP_REPEATS = 7      # set-up measurements per run; setup_s is their median
ROUND_STEPS = 200
# The highest of 50/90/95/99/99.5/99.9 with at least ten steps beyond it at
# the minimum count of one round. Fixed, so that it cannot shift when a
# faster program runs more steps.
TAIL_PERCENTILE = 95.0
CALLS = 2              # nn and map calls per pass; eval is called once
DICT_ENTRIES = 200     # resolvable dictionary entries
NN_WORDS = 20
K = 10
BATCH = 256
EVAL_EVERY = 10
CHECKPOINT_EVERY = 100
COMMANDS = ("eval", "nn", "map")


@dataclass(frozen=True)
class Workload:
    name: str
    dim: int
    vocab: int          # rows of both synthetic tables
    noise: float        # target noise sigma in synth_generate
    preset: str         # discriminator preset of the training rounds
    mode: str           # gan or aae
    checkpoint: str     # the CLI's: "trained" (first round's) or "truth" (encoder = Q)
    # The speed kernel eval's time is scaled by (see speed.py): eval is
    # interpreter-bound on a 2,000-row table and memory-bound on a 10k-row one.
    # nn and map are dominated by text parsing and formatting.
    eval_kind: str


WORKLOADS = {
    w.name: w for w in (
        Workload("train-enit-aae", dim=100, vocab=2000, noise=0.0, preset="en-it",
                 mode="aae", checkpoint="trained", eval_kind="compute"),
        Workload("train-deen-gan", dim=40, vocab=2000, noise=0.0, preset="de-en",
                 mode="gan", checkpoint="trained", eval_kind="compute"),
        Workload("cli-10k-d300", dim=300, vocab=10000, noise=3.5, preset="de-en",
                 mode="gan", checkpoint="truth", eval_kind="retrieval"),
    )
}


def synthetic_spec(wl: Workload, seed: int):
    from xlingmap.evaluation import SyntheticSpec

    return SyntheticSpec(dim=wl.dim, source_size=wl.vocab, target_size=wl.vocab,
                         noise_sigma=wl.noise, seed=seed)


class Checks:
    """Counts attempted operations and failures, keeping the first few
    failure messages."""

    def __init__(self, attempted: int = 0, failed: int = 0, messages=()):
        self.attempted = attempted
        self.failed = failed
        self.messages = list(messages)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)


# -- training ----------------------------------------------------------------


def train_config(wl: Workload, seed: int):
    from xlingmap import training
    from xlingmap.models import PRESETS, ModelConfig

    preset = PRESETS[wl.preset]  # its block shape; dim comes from the tables
    return training.TrainConfig(
        model=ModelConfig(dim=wl.dim, block_dim=preset["block_dim"],
                          depth=preset["depth"]), mode=wl.mode,
        batch_size=BATCH, max_steps=ROUND_STEPS, eval_every=EVAL_EVERY,
        checkpoint_every=CHECKPOINT_EVERY, seed=seed)


def trajectory_digest(metrics_path: Path) -> tuple:
    """SHA-256 of metrics.jsonl without its wall_time fields, plus the last
    eval record."""
    h = hashlib.sha256()
    last_eval = None
    with open(metrics_path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            rec.pop("wall_time", None)
            if rec.get("type") == "eval":
                last_eval = rec
            h.update(json.dumps(rec, sort_keys=True).encode("utf-8") + b"\n")
    return h.hexdigest(), last_eval


def train_round(wl: Workload, seed: int, out: Path, steps: list, checks: Checks,
                speed: Speed, tracer) -> dict:
    """One ``Trainer.run`` into ``out``; appends ``(end, interval)`` of each
    step to ``steps``. The tables are built here and dropped on return, so
    that the CLI pass that follows does not hold them. The ``compute``
    kernel is sampled between steps, outside the step intervals."""
    from xlingmap import training
    from xlingmap.evaluation import synth_generate

    d = synth_generate(synthetic_spec(wl, seed))
    trainer = training.Trainer(train_config(wl, seed), d.src, d.tgt, d.src_freq, d.tgt_freq)
    if tracer is not None:
        tracer.labels.update({
            id(trainer.opt_gen): "gen", id(trainer.opt_disc): "disc",
            id(trainer.opt_monitor): "monitor"})
    first = len(steps)
    speed.sample(("compute",))
    spent = speed.spent
    last = [clock()]   # end of the previous step's record

    def on_record(rec):
        if rec["type"] != "step":
            return
        now = clock()
        steps.append((now, now - last[0]))
        checks.record(all(math.isfinite(v) for v in rec.values()
                          if isinstance(v, float)), f"non-finite step {rec}")
        speed.sample_if_due(("compute",))
        last[0] = clock()

    with _region(tracer, "bench.train"):
        t0 = clock()
        path = trainer.run(out, on_record=on_record)
        t1 = clock()
    spent = speed.spent - spent
    if tracer is not None:
        tracer.labels.clear()
    checks.record(len(steps) - first == ROUND_STEPS, "wrong step count")
    checks.record(_checkpoint_ok(path, trainer), f"checkpoint {path} did not verify")
    digest, last_eval = trajectory_digest(out / "metrics.jsonl")
    return {"span": (t0, t1, t1 - t0 - spent), "checkpoint": path,
            "digest": digest, "last_eval": last_eval}


def _checkpoint_ok(path: Path, trainer) -> bool:
    from xlingmap import training

    data = path.read_bytes()
    if hashlib.sha256(data[:-32]).digest() != data[-32:]:
        return False
    header, arrays = training.read_checkpoint(path)
    return header["step"] == trainer.step_count and np.array_equal(
        arrays["encoder.weight"], trainer.encoder.weight.value)


def _region(tracer, name: str):
    return tracer.region(name) if tracer is not None else contextlib.nullcontext()


# -- set-up ------------------------------------------------------------------


def setup_times(wl: Workload, seed: int, manifest: dict) -> list:
    """Program-side set-up before the first timed operation, measured
    ``SETUP_REPEATS`` times: ``Trainer`` construction for a training
    workload, checkpoint and dictionary parse for the CLI workload."""
    from xlingmap import evaluation, training

    times = []
    if wl.checkpoint == "trained":
        d = evaluation.synth_generate(synthetic_spec(wl, seed))
        cfg = train_config(wl, seed)
        for _ in range(SETUP_REPEATS):
            t0 = clock()
            training.Trainer(cfg, d.src, d.tgt, d.src_freq, d.tgt_freq)
            times.append(clock() - t0)
    else:
        for _ in range(SETUP_REPEATS):
            t0 = clock()
            training.encoder_from_checkpoint(manifest["checkpoint"])
            evaluation.BilingualDictionary.load(manifest["dict"])
            times.append(clock() - t0)
    return times


# -- CLI ---------------------------------------------------------------------


def cli_pass(manifest: dict, checkpoint: str, out_dir: Path, calls: dict,
             outputs: list, speed: Speed, tracer) -> None:
    """One ``eval`` and ``CALLS`` each of ``nn`` and ``map``. Each call's
    ``(start, end, time less sampling)`` goes to ``calls``; its output
    (stdout, or the ``map`` output file) is left under ``out_dir`` and
    listed in ``outputs`` for checking. The kernels are sampled before and
    after each call, and inside it through the probes ``run`` installs."""
    from xlingmap import cli

    common = ["--checkpoint", checkpoint, "--src", manifest["src"]]
    tables = common + ["--tgt", manifest["tgt"]]
    for name in ("eval",) + ("nn",) * CALLS + ("map",) * CALLS:
        target = out_dir / f"{len(outputs):03d}-{name}.{'vec' if name == 'map' else 'txt'}"
        argv = {
            "eval": ["eval", *tables, "--dict", manifest["dict"], "--k", str(K)],
            "nn": ["nn", *tables, "--words", ",".join(manifest["queries"]), "--k", str(K)],
            "map": ["map", *common, "--out", str(target)],
        }[name]
        out, err = io.StringIO(), io.StringIO()
        speed.sample()
        spent = speed.spent
        with _region(tracer, f"bench.cli.{name}"), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = clock()
            rc = cli.main(argv)
            t1 = clock()
        calls[name].append((t0, t1, t1 - t0 - (speed.spent - spent)))
        speed.sample()
        # Each command of a real user runs in a fresh process; start the
        # next one without the garbage of this one.
        gc.collect()
        if name != "map":
            target.write_text(out.getvalue(), encoding="utf-8")
        outputs.append([name, str(target), rc, err.getvalue()[-300:]])


# -- one workload run ----------------------------------------------------------


def install_probes(speed: Speed, eval_kind: str) -> None:
    """Sample a kernel inside the long CLI calls: ``eval_kind`` at the calls
    of ``knn``, ``text`` at those of the embedding reader and writer, each
    patched where it is looked up. Only in untraced runs: traced runs
    report wall time."""
    from xlingmap import cli, embed_io, evaluation

    for module, name, kind in (
        (evaluation, "knn", eval_kind), (cli, "knn", eval_kind),
        (embed_io, "load_embeddings", "text"), (cli, "load_embeddings", "text"),
        (embed_io, "save_embeddings", "text"), (cli, "save_embeddings", "text"),
    ):
        setattr(module, name, speed.probe(getattr(module, name), (kind,)))


def run(wl: Workload, seed: int, seconds: float, work: Path, spans_path=None) -> dict:
    """Run one workload; traced when ``spans_path`` is given, which then
    receives the spans."""
    tracer = None
    if spans_path is not None:
        import tracer as tracing

        tracer = tracing.Tracer()
        wrapped = tracing.install(tracer)
    manifest = json.loads((work / "manifest.json").read_text(encoding="utf-8"))
    out_dir = work / "out"
    out_dir.mkdir()
    checks = Checks()
    speed = Speed(("compute", "text", wl.eval_kind))
    if tracer is None:
        install_probes(speed, wl.eval_kind)
    setups = setup_times(wl, seed, manifest)

    rounds, steps, outputs = [], [], []
    calls = {name: [] for name in COMMANDS}
    kind = {"eval": wl.eval_kind, "nn": "text", "map": "text"}
    window_start = start = clock()
    while not rounds or clock() - start < seconds:
        out = work / f"round{len(rounds)}"
        rounds.append(train_round(wl, seed, out, steps, checks, speed, tracer))
        if len(rounds) > 1:
            checks.record(rounds[-1]["digest"] == rounds[0]["digest"],
                          "trajectory differs between rounds")
            shutil.rmtree(out)
        # every round is the same, so the CLI uses the first round's checkpoint
        checkpoint = manifest["checkpoint"] or str(rounds[0]["checkpoint"])
        cli_pass(manifest, checkpoint, out_dir, calls, outputs, speed, tracer)
    window_end = clock()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def scaled(scale) -> dict:
        """The metrics kept in reference time (see speed.py), each wall
        time multiplied by ``scale(kind, start, end)``."""
        ms = [1e3 * wall * scale("compute", end - wall, end) for end, wall in steps]
        busy = sum(b * scale("compute", t0, t1) for t0, t1, b in
                   (r["span"] for r in rounds))
        return {"train_steps_per_s": len(ms) / busy,
                "step_ms_p50": float(np.percentile(ms, 50)),
                "step_ms_tail": float(np.percentile(ms, TAIL_PERCENTILE)),
                **{f"{name}_s": statistics.median(
                    busy * scale(kind[name], t0, t1) for t0, t1, busy in spans)
                   for name, spans in calls.items()}}

    end_to_end = {"setup_s": statistics.median(setups), "peak_rss_mb": rss_mb,
                  **scaled(speed.scale)}
    last_eval = rounds[0]["last_eval"]
    checkpoint_bytes = rounds[0]["checkpoint"].stat().st_size
    info = {
        "rounds": len(rounds), "steps": len(steps), "cli_passes": len(calls["eval"]),
        "tail_percentile": TAIL_PERCENTILE,
        "trajectory_sha256": rounds[0]["digest"],
        "final_cov_frobenius_error": last_eval["cov_frobenius_error"],
        "final_monitor_accuracy": last_eval["monitor_accuracy"],
        "checkpoint_bytes": checkpoint_bytes,
        "setup_program_s": statistics.median(setups),
        "wall": scaled(lambda kind, start, end: 1.0),
        "speed_kernel_s": {k: statistics.median(v) for k, v in speed.kernel.items()},
        "speed_samples": {k: len(v) for k, v in speed.kernel.items()},
    }
    metrics = end_to_end
    if tracer is not None:
        import per_layer
        from tracer import SpanTree

        metrics = per_layer.compute(tracer, checkpoint_bytes)
        info["wrapped_callables"] = wrapped
        info["spans"] = len(tracer)
        info["consistency"] = SpanTree(tracer, per_layer.STEP).consistency(
            window_start, window_end)
        tracer.write(spans_path)
    return {"attempted": checks.attempted, "failed": checks.failed,
            "messages": checks.messages, "metrics": metrics, "info": info,
            "outputs": outputs, "checkpoint": checkpoint}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--work-dir", required=True,
                        help="directory holding manifest.json and the inputs it names")
    parser.add_argument("--spans", help="trace the run and write its spans here")
    args = parser.parse_args(argv)
    result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                 Path(args.work_dir), args.spans)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
