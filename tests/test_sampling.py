import re

import numpy as np
import pytest

from xlingmap.embed_io import EmbeddingTable, Vocabulary
from xlingmap.models import ModelConfig
from xlingmap.numerics import Rng
from xlingmap.sampling import (
    SamplerConfig,
    build_adjusted,
    keep_weight,
    sample_batch,
)
from xlingmap.training import TrainConfig, Trainer

from conftest import random_table


def zipf_counts(size, exponent=1.0, base=1_000_000):
    return np.array([max(1, round(base / (i + 1) ** exponent)) for i in range(size)])


def probabilities(cum):
    """Each row's probability under the cumulative distribution ``cum``."""
    return np.diff(cum, prepend=0.0)


def draw(cum, n, rng):
    """The rows ``sample_batch`` draws, as row indices: it samples a table
    whose row i holds the value i."""
    table = EmbeddingTable(Vocabulary([f"w{i}" for i in range(len(cum))]),
                           np.arange(len(cum), dtype=np.float64)[:, None])
    return sample_batch(cum, table, n, rng)[:, 0].astype(np.intp)


def test_keep_weight_clamped_and_monotone():
    t = 1e-5
    freqs = np.logspace(-7, -1, 50)
    w = keep_weight(freqs, t, "code")
    assert np.all(w <= 1.0)
    assert np.all(w > 0.0)
    # non-increasing above the threshold region
    above = freqs > t
    assert np.all(np.diff(w[above]) <= 1e-15)
    # rare words unaffected
    assert np.all(keep_weight(np.array([1e-7, 1e-6]), t, "code") == 1.0)


def test_keep_weight_paper_formula():
    t = 1e-5
    assert keep_weight(np.array([4e-5]), t, "paper")[0] == pytest.approx(0.5)
    assert keep_weight(np.array([1e-6]), t, "paper")[0] == 1.0


def test_uniform_rare_words_give_uniform_distribution():
    # relative freq 0.1 each; pick a huge threshold so keep = 1 everywhere
    cum = build_adjusted(np.ones(10, dtype=np.int64), SamplerConfig(subsample_threshold=10.0))
    assert np.allclose(probabilities(cum), 0.1)


def test_single_word_distribution():
    assert build_adjusted(np.array([5]), SamplerConfig()).tolist() == [1.0]


def test_two_words_counts_9_1_huge_threshold():
    cum = build_adjusted(np.array([9, 1]), SamplerConfig(subsample_threshold=100.0))
    assert np.allclose(probabilities(cum), [0.9, 0.1])


def test_zero_count_still_sampleable():
    cum = build_adjusted(np.array([0, 10]), SamplerConfig())
    assert np.all(probabilities(cum) > 0.0)
    # a count of 0 samples like a count of 1
    assert np.array_equal(cum, build_adjusted(np.array([1, 10]), SamplerConfig()))


@pytest.mark.parametrize("formula", ["code", "paper"])
def test_build_adjusted_is_the_subsampling_formula_bitwise(formula):
    # the float operations, in order: floor at 1, relative frequency, keep
    # weights, normalized weights, their running sum, last entry set to 1
    rng = np.random.default_rng(12)
    for counts in (zipf_counts(2000), rng.integers(0, 10**9, 500), np.array([0, 0, 3]),
                   np.array([7])):
        for threshold in (1e-5, 1e-3, 0.5):
            floored = np.array([max(1, int(c)) for c in counts], dtype=np.float64)
            rel = floored / floored.sum()
            t = threshold
            if formula == "code":
                keep = np.minimum((np.sqrt(rel / t) + 1.0) * (t / rel), 1.0)
            else:
                keep = np.minimum(np.sqrt(t / rel), 1.0)
            weights = floored * keep
            want = np.cumsum(weights / weights.sum())
            want[-1] = 1.0
            got = build_adjusted(counts, SamplerConfig(threshold, formula))
            assert got.dtype == np.float64 and got[-1] == 1.0
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_sample_batch_single_word():
    table = random_table(1, 4, seed=0)
    cum = build_adjusted(np.ones(1, dtype=np.int64), SamplerConfig())
    rows = sample_batch(cum, table, 6, Rng(1).substream("s"))
    assert rows.shape == (6, 4)
    assert np.all(draw(cum, 6, Rng(1).substream("s")) == 0)
    assert np.allclose(rows, table.matrix[0])


def test_sample_batch_deterministic():
    table = random_table(50, 4, seed=1)
    cum = build_adjusted(zipf_counts(50), SamplerConfig())
    idx = draw(cum, 100, Rng(7).substream("s"))
    rows = sample_batch(cum, table, 100, Rng(7).substream("s"))
    assert np.array_equal(rows, table.matrix[idx])
    assert np.array_equal(rows, sample_batch(cum, table, 100, Rng(7).substream("s")))
    # the rows are the caller's own, not a view of the read-only table
    assert rows.flags.writeable and not np.shares_memory(rows, table.matrix)


def test_empirical_matches_exact_distribution():
    cum = build_adjusted(zipf_counts(100), SamplerConfig())
    idx = draw(cum, 1_000_000, Rng(3).substream("s"))
    emp = np.bincount(idx, minlength=100) / idx.size
    tv = 0.5 * np.abs(emp - probabilities(cum)).sum()
    assert tv < 0.005


def test_two_batches_equal_one_double_batch_distribution():
    cum = build_adjusted(zipf_counts(60), SamplerConfig())
    n = 200_000
    a = draw(cum, n, Rng(5).substream("x"))
    b = draw(cum, n, Rng(6).substream("y"))
    c = draw(cum, 2 * n, Rng(7).substream("z"))
    emp_ab = np.bincount(np.concatenate([a, b]), minlength=60) / (2 * n)
    emp_c = np.bincount(c, minlength=60) / (2 * n)
    tv = 0.5 * np.abs(emp_ab - emp_c).sum()
    assert tv < 0.01


def test_sample_batch_vocab_mismatch():
    # counts that are not one per row of their table never reach a sampler:
    # training refuses them where they enter, naming the side
    src, tgt = random_table(30, 6, seed=1, prefix="s"), random_table(30, 6, seed=2, prefix="t")
    cfg = TrainConfig(model=ModelConfig(dim=6, block_dim=4, depth=2))
    for side in ("source", "target"):
        ones = np.ones(30, dtype=np.int64)
        for counts, message in (
                (ones[:-1], f"{side} counts have shape (29,), not one per row of "
                            f"the {side} table (30)"),
                (ones[:, None], f"{side} counts have shape (30, 1)")):
            given = (counts, None) if side == "source" else (None, counts)
            with pytest.raises(ValueError, match=re.escape(message)):
                Trainer(cfg, src, tgt, *given)


def test_distribution_validations():
    with pytest.raises(ValueError):
        SamplerConfig(subsample_threshold=0.0)
    with pytest.raises(ValueError):
        SamplerConfig(formula="nope")
