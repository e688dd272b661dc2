"""Machine-speed reference for timings taken on a shared machine.

On the 2-vCPU virtual machine this benchmark was built on, each vCPU
runs at two speeds: for seconds to tens of seconds at a time the same
training step takes 1.3 times as long and text parsing 1.4 times, and
the two vCPUs switch independently. A 20-second run often spends all or
none of its length at the slow speed, so the wall times of ten runs
spread by 17-47% (interquartile range over median; see README.md).

So the run samples fixed kernels in the process it measures, on the same
vCPU and within a second of the work, one kernel per kind of work:

- ``compute``: small matrix products and interpreter work, like a
  training step or ``eval`` on a 2,000-row table;
- ``text``: parsing and formatting floats, like the embedding reader and
  writer;
- ``retrieval``: an exact cosine top-10 over a 10,000 x 300 table, like
  ``knn`` on the 10k-row table. Its table (24 MB) is built only in a run
  that samples it.

An operation's wall time, less the time spent sampling inside it, is
multiplied by ``REFERENCE_S[kind] / mean kernel time`` over the kernel's
samples from a second before the operation to a second after it. The
result is the time the operation would take at the speed the kernels
were timed at. The kernels are benchmark code, identical on every commit,
so a program change moves the scaled time as much as the wall time.
"""
from __future__ import annotations

import bisect
import functools
import statistics
import time

import numpy as np

clock = time.perf_counter

# About the kernels' times in that machine's fast phases, so that reference
# time reads close to wall time there.
REFERENCE_S = {"compute": 0.00095, "text": 0.0017, "retrieval": 0.0075}
REPEATS = 3
EVERY_S = 0.25    # sampling period inside long operations
PAD_S = 1.0       # samples this close to an operation count for it

_rng = np.random.default_rng(12345)
_A = _rng.normal(size=(256, 64))
_B = _rng.normal(size=(64, 64))
_LINE = " ".join(repr(float(x)) for x in _rng.normal(size=3000))


def _compute():
    for _ in range(4):
        _A @ _B
    total = 0
    for i in range(20000):
        total += i
    return total


def _text():
    values = [float(v) for v in _LINE.split(" ")]
    return " ".join(format(v, ".17g") for v in values[:1000])


@functools.cache
def _retrieval_data():
    rng = np.random.default_rng(54321)
    return rng.normal(size=(10000, 300)), rng.normal(size=300)


def _retrieval():
    table, query = _retrieval_data()
    sims = (table @ query) / np.linalg.norm(table, axis=1)
    return np.lexsort((np.arange(sims.size), -sims))[:10]


KERNELS = {"compute": _compute, "text": _text, "retrieval": _retrieval}


class Speed:
    """Kernel samples over a run, and the wall-to-reference factor they give."""

    def __init__(self, kinds):
        self.kinds = tuple(dict.fromkeys(kinds))
        self.times = {kind: [] for kind in self.kinds}    # when each sample was taken
        self.kernel = {kind: [] for kind in self.kinds}   # median of REPEATS, seconds
        self.spent = 0.0          # wall time spent sampling so far
        self.last = -float("inf")

    def sample(self, kinds=None) -> None:
        """Time the given kernels (default: all of this run's) once each."""
        t0 = clock()
        for kind in kinds or self.kinds:
            times = []
            for _ in range(REPEATS):
                t = clock()
                KERNELS[kind]()
                times.append(clock() - t)
            self.kernel[kind].append(statistics.median(times))
            self.times[kind].append(t0)
        self.last = t0
        self.spent += clock() - t0

    def sample_if_due(self, kinds=None) -> None:
        if clock() - self.last >= EVERY_S:
            self.sample(kinds)

    def probe(self, fn, kinds):
        """``fn`` wrapped to sample ``kinds``, when due, before it runs: a
        point to sample at inside a long call that calls ``fn``."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.sample_if_due(kinds)
            return fn(*args, **kwargs)
        return wrapper

    def scale(self, kind: str, start: float, end: float) -> float:
        """Wall-to-reference factor for work of ``kind`` run from start to end."""
        times = self.times[kind]
        window = self.kernel[kind][bisect.bisect_left(times, start - PAD_S):
                                   bisect.bisect_right(times, end + PAD_S)]
        return REFERENCE_S[kind] / statistics.fmean(window or self.kernel[kind])
