"""Tracer self-check: tracing must observe the program without changing it.

    python3 perfbench/selfcheck.py [--seed 7] [--seconds 2] [WORKLOAD ...]

For each workload (default: all) this runs the workload once untraced and
twice traced with the same seed, then checks that

- every run passes its output checks;
- the traced trajectory digest equals the untraced one;
- the span tree is well nested, and self times plus the time outside any
  span add up to the traced wall time;
- every count metric is identical across the two traced runs.

It prints the tracing overhead (traced minus untraced) of each end-to-end
time, in wall-clock time, and exits 1 if any check fails.
"""
from __future__ import annotations

import argparse
import sys

import run  # pins BLAS threads before anything imports numpy
import per_layer
from workloads import WORKLOADS

TIMES = ("step_ms_p50", "step_ms_tail", "eval_s", "nn_s", "map_s")


def check(workload: str, seed: int, seconds: float) -> list:
    plain = run.run_workload(workload, seed, seconds)
    traced = [
        run.run_workload(workload, seed, seconds,
                         spans=run.OUT / f"selfcheck-spans-{workload}-{i}.jsonl")
        for i in range(2)
    ]
    problems = []
    for i, res in enumerate([plain] + traced):
        if res["failed"]:
            problems.append(f"run {i}: {res['failed']} failed: {res['info']['messages']}")
    digest = plain["info"]["trajectory_sha256"]
    for res in traced:
        if res["info"]["trajectory_sha256"] != digest:
            problems.append("traced trajectory differs from the untraced one")
        c = res["info"]["consistency"]
        if not c["nested"]:
            problems.append("span tree is not well nested")
        if abs(c["residual_s"]) > 1e-9 * c["wall_s"]:
            problems.append(f"self times + untraced time != wall time: {c}")
    for name in per_layer.COUNTS:
        a, b = (res["metrics"][name] for res in traced)
        if a != b:
            problems.append(f"count {name} differs between traced runs: {a} vs {b}")

    c = traced[0]["info"]["consistency"]
    print(f"{workload}: {traced[0]['info']['spans']} spans, wall {c['wall_s']:.3f} s = "
          f"self {c['sum_self_s']:.3f} s + untraced {c['untraced_s']:.3f} s")
    # Wall-clock values: a traced run has no speed probes inside its CLI
    # calls, so its reference times are scaled from fewer samples.
    base = plain["info"]["wall"]
    steps_plain = 1e3 / base["train_steps_per_s"]
    for res in traced:
        e2e = res["info"]["wall"]
        steps_traced = 1e3 / e2e["train_steps_per_s"]
        parts = [f"ms/step {steps_traced - steps_plain:+.3f} "
                 f"({(steps_traced / steps_plain - 1) * 100:+.1f}%)"]
        parts += [f"{m} {e2e[m] - base[m]:+.4g} ({(e2e[m] / base[m] - 1) * 100:+.1f}%)"
                  for m in TIMES]
        print(f"  tracing overhead: " + ", ".join(parts))
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                        help=f"any of {', '.join(sorted(WORKLOADS))}")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args(argv)
    unknown = set(args.workloads) - set(WORKLOADS)
    if unknown:
        parser.error(f"unknown workloads: {sorted(unknown)}")
    run.OUT.mkdir(exist_ok=True)
    problems = []
    for workload in args.workloads or sorted(WORKLOADS):
        problems += [f"{workload}: {p}" for p in check(workload, args.seed, args.seconds)]
    for p in problems:
        print(f"FAIL {p}")
    print("selfcheck:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
