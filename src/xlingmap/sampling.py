"""Frequency-based batch sampling with word2vec-style subsampling of very
frequent words.

Two keep-weight formulas are available: ``"code"`` follows the word2vec
reference implementation, ``(sqrt(f/t) + 1) * t/f``, which never fully
excludes a word; ``"paper"`` follows the published discard rule, keeping a
word with probability ``sqrt(t/f)``. Both are clamped to 1.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embed_io import EmbeddingTable, FrequencyTable
from .numerics import Rng

SUBSAMPLE_FORMULAS = ("code", "paper")


@dataclass(frozen=True)
class SamplerConfig:
    subsample_threshold: float = 1e-5
    formula: str = "code"

    def __post_init__(self):
        if self.subsample_threshold <= 0.0:
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


class AdjustedDistribution:
    """Sampling distribution over a vocabulary with an O(log V) inversion table."""

    def __init__(self, vocab, probabilities):
        probabilities = np.asarray(probabilities, dtype=np.float64)
        if probabilities.ndim != 1 or probabilities.size != len(vocab):
            raise ValueError("probability vector does not match vocabulary")
        if np.any(probabilities <= 0.0):
            raise ValueError("all probabilities must be positive")
        if abs(probabilities.sum() - 1.0) > 1e-12:
            raise ValueError("probabilities must sum to 1")
        self.vocab = vocab
        self.probabilities = probabilities
        self._cum = np.cumsum(probabilities)
        self._cum[-1] = 1.0

    def sample_indices(self, n: int, rng: Rng) -> np.ndarray:
        if n < 1:
            raise ValueError("sample size must be >= 1")
        u = np.atleast_1d(rng.uniform(size=n))
        return np.searchsorted(self._cum, u, side="right")


def build_adjusted(freq: FrequencyTable, cfg: SamplerConfig) -> AdjustedDistribution:
    """Distribution proportional to count * keep_weight(relative frequency).

    Counts are floored at 1 so every word stays sampleable.
    """
    counts = np.array(
        [max(1, freq.counts[tok]) for tok in freq.vocab.tokens], dtype=np.float64
    )
    rel = counts / counts.sum()
    weights = counts * keep_weight(rel, cfg.subsample_threshold, cfg.formula)
    return AdjustedDistribution(freq.vocab, weights / weights.sum())


def sample_batch(dist: AdjustedDistribution, table: EmbeddingTable, n: int,
                 rng: Rng):
    """Draw n rows i.i.d. with replacement; returns a fresh (n x d) array."""
    if dist.vocab != table.vocab:
        raise ValueError("distribution vocabulary does not match table")
    return table.matrix[dist.sample_indices(n, rng)]
