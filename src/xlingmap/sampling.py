"""Frequency-based batch sampling with word2vec-style subsampling of very
frequent words.

Two keep-weight formulas are available: ``"code"`` follows the word2vec
reference implementation, ``(sqrt(f/t) + 1) * t/f``, which never fully
excludes a word; ``"paper"`` follows the published discard rule, keeping a
word with probability ``sqrt(t/f)``. Both are clamped to 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .embed_io import EmbeddingTable
from .numerics import Rng

SUBSAMPLE_FORMULAS = ("code", "paper")


@dataclass(frozen=True)
class SamplerConfig:
    subsample_threshold: float = 1e-5
    formula: str = "code"

    def __post_init__(self):
        if not 0.0 < self.subsample_threshold <= math.inf:  # NaN too
            raise ValueError("subsample threshold must be positive")
        if self.formula not in SUBSAMPLE_FORMULAS:
            raise ValueError(
                f"unknown subsample formula {self.formula!r}; "
                f"choose from {SUBSAMPLE_FORMULAS}"
            )


def keep_weight(rel_freq, threshold: float, formula: str = "code"):
    """Down-weighting factor in (0, 1] for a word of given relative frequency."""
    rel_freq = np.asarray(rel_freq, dtype=np.float64)
    t = threshold
    if formula == "code":
        w = (np.sqrt(rel_freq / t) + 1.0) * (t / rel_freq)
    elif formula == "paper":
        w = np.sqrt(t / rel_freq)
    else:
        raise ValueError(f"unknown subsample formula {formula!r}")
    return np.minimum(w, 1.0)


def build_adjusted(counts, cfg: SamplerConfig) -> np.ndarray:
    """The cumulative sampling distribution over table rows, proportional to
    count * keep_weight(relative frequency), as a float64 array whose last
    entry is exactly 1.

    Counts are floored at 1 so every row stays sampleable.
    """
    counts = np.maximum(counts, 1).astype(np.float64)
    rel = counts / counts.sum()
    weights = counts * keep_weight(rel, cfg.subsample_threshold, cfg.formula)
    cum = np.cumsum(weights / weights.sum())
    cum[-1] = 1.0
    return cum


def sample_batch(cum: np.ndarray, table: EmbeddingTable, n: int, rng: Rng):
    """Draw n rows i.i.d. with replacement by the cumulative distribution
    ``cum`` over the table's rows; returns a fresh (n x d) array."""
    return table.matrix[np.searchsorted(cum, rng.uniform(size=n), side="right")]
