"""xlingmap benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload train-enit-aae --seed 1 --seconds 20 --trace 0

Run from the repository root. The workload runs in a child process with
BLAS pinned to one thread, importing the package from ``src/``. With
``--trace 0`` the result holds the end-to-end metrics; with ``--trace 1``
the run is traced and the result holds the per-layer metrics. The last line
of standard output is the result as JSON; the lines before it, each
starting with ``#``, give the run environment, every metric with its unit,
and the error rate. The full result is also written to
``.perfbench_out/``. See ``perfbench/README.md``.
"""
from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "XLINGMAP_THREADS")
for _var in THREAD_VARS:  # before numpy is imported anywhere in the tree
    os.environ[_var] = "1"

import argparse
import filecmp
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
TMP = ROOT / ".perfbench_tmp"
sys.path[:0] = [str(HERE), str(ROOT / "src")]  # the benchmark, and the package it checks

import per_layer  # noqa: E402
from prepare import Inputs, Reference  # noqa: E402
from workloads import WORKLOADS, Checks  # noqa: E402

E2E_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "train_steps_per_s": "1/s",
    "step_ms_p50": "ms", "step_ms_tail": "ms", "eval_s": "s", "nn_s": "s",
    "map_s": "s",
}
IMPORT_PROBES = 9
IMPORT_PROBE = (
    "import time, numpy\n"
    "t = time.perf_counter()\n"
    "import xlingmap.cli\n"
    "print(time.perf_counter() - t)\n"
    "print(xlingmap.cli.__file__)\n"
)
# A whole run must end within 180 s. The slowest workload, cli-10k-d300,
# takes 55-70 s; a program change that makes it about 2.5 times slower ends
# the run with an error instead of a result.
DEADLINE_S = 170.0


def git_revision() -> str:
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split(" ")[0]
    return f"unknown ({name})"


def environment(seed: int) -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "git_revision": git_revision(),
        "seed": seed,
    }


def import_seconds(env: dict, deadline: float) -> float:
    """Median time to import the package in fresh interpreters; numpy,
    which the benchmark itself needs, is imported before the clock starts."""
    times = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
            capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()), check=True)
        seconds, path = out.stdout.split("\n")[:2]
        if not Path(path).resolve().is_relative_to(ROOT / "src"):
            raise RuntimeError(f"imported xlingmap from {path}, not from {ROOT / 'src'}")
        times.append(float(seconds))
    return statistics.median(times)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return env


def run_workload(workload: str, seed: int, seconds: float, spans=None,
                 deadline: float | None = None) -> dict:
    """Write the workload's inputs, run it in a child process (traced when
    ``spans`` names a file for the spans), check the child's CLI outputs
    against the reference and return the child's result with the checks
    added."""
    if deadline is None:
        deadline = time.monotonic() + DEADLINE_S
    wl = WORKLOADS[workload]
    TMP.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-seed{seed}-", dir=TMP))
    try:
        inp = Inputs(wl, seed, work)
        cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--work-dir", str(work)]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0 or not proc.stdout.strip():
            raise RuntimeError(f"workload exited with code {proc.returncode}\n"
                               f"{proc.stderr[-4000:]}")
        child = json.loads(proc.stdout.strip().splitlines()[-1])

        if wl.checkpoint == "truth":
            weight = inp.data.map_matrix
        else:
            from xlingmap.training import read_checkpoint

            weight = read_checkpoint(child["checkpoint"])[1]["encoder.weight"]
        ref = Reference(inp, weight)
        checks = Checks(child["attempted"], child["failed"], child.pop("messages"))
        first_map = None   # (path, ok) of the first map output, checked in full
        for name, path, rc, err in child.pop("outputs"):
            ok = rc == 0
            try:
                if name == "map" and first_map is not None:
                    # the same command on the same input: identical bytes
                    ok = ok and first_map[1] and filecmp.cmp(first_map[0], path,
                                                              shallow=False)
                else:
                    ok = ok and ref.check(name, Path(path))
                    if name == "map":
                        first_map = (path, ok)
            except (ValueError, KeyError, IndexError, OSError) as exc:
                ok, err = False, err + repr(exc)
            checks.record(ok, f"{name} failed: rc={rc} {err}")
        child.update(attempted=checks.attempted, failed=checks.failed)
        child["info"].update(messages=checks.messages,
                             reference_p_at_1=ref.certain[1] / ref.resolvable)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return child


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the workload repeats its rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "xlingmap" / "__init__.py").is_file():
        print(f"error: no xlingmap package under {ROOT / 'src'}", file=sys.stderr)
        return 1
    env = environment(args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    try:
        setup_import = None if args.trace else import_seconds(child_env(), deadline)
        child = run_workload(
            args.workload, args.seed, args.seconds,
            spans=OUT / f"spans-{args.workload}.jsonl" if args.trace else None,
            deadline=deadline)
    except subprocess.CalledProcessError as err:
        print(f"error: {err}\n{err.stderr[-4000:]}", file=sys.stderr)
        return 1
    except (subprocess.SubprocessError, RuntimeError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    metrics = child["metrics"]
    units = per_layer.UNITS if args.trace else E2E_UNITS
    if not args.trace:
        metrics["setup_s"] += setup_import
        child["info"]["setup_import_s"] = setup_import
    result = {
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    (OUT / f"result-{tag}.json").write_text(
        json.dumps(dict(result, workload=args.workload, env=env, info=child["info"]),
                   indent=2, sort_keys=True) + "\n", encoding="utf-8")

    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# info {json.dumps(child['info'], sort_keys=True)}")
    print(f"# {args.workload}: error_rate {child['failed'] / child['attempted']:.6g} "
          f"({child['failed']} of {child['attempted']} operations failed)")
    for name, unit in units.items():
        print(f"# {args.workload}: {name} {metrics[name]:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
