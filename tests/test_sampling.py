import numpy as np
import pytest

from xlingmap.embed_io import FrequencyTable, Vocabulary
from xlingmap.numerics import Rng
from xlingmap.sampling import (
    AdjustedDistribution,
    SamplerConfig,
    build_adjusted,
    keep_weight,
    sample_batch,
)

from conftest import random_table


def zipf_freq(vocab, exponent=1.0, base=1_000_000):
    counts = {t: max(1, round(base / (i + 1) ** exponent))
              for i, t in enumerate(vocab.tokens)}
    return FrequencyTable(vocab, counts)


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
    vocab = Vocabulary([f"w{i}" for i in range(10)])
    freq = FrequencyTable(vocab, {t: 1 for t in vocab.tokens})
    # relative freq 0.1 each; pick a huge threshold so keep = 1 everywhere
    dist = build_adjusted(freq, SamplerConfig(subsample_threshold=10.0))
    assert np.allclose(dist.probabilities, 0.1)


def test_single_word_distribution():
    vocab = Vocabulary(["only"])
    dist = build_adjusted(FrequencyTable(vocab, {"only": 5}), SamplerConfig())
    assert dist.probabilities.tolist() == [1.0]


def test_two_words_counts_9_1_huge_threshold():
    vocab = Vocabulary(["a", "b"])
    dist = build_adjusted(
        FrequencyTable(vocab, {"a": 9, "b": 1}),
        SamplerConfig(subsample_threshold=100.0),
    )
    assert np.allclose(dist.probabilities, [0.9, 0.1])


def test_zero_count_still_sampleable():
    vocab = Vocabulary(["a", "b"])
    dist = build_adjusted(
        FrequencyTable(vocab, {"a": 0, "b": 10}), SamplerConfig()
    )
    assert np.all(dist.probabilities > 0.0)


def test_sample_batch_single_word():
    table = random_table(1, 4, seed=0)
    dist = build_adjusted(FrequencyTable.uniform(table.vocab), SamplerConfig())
    rows = sample_batch(dist, table, 6, Rng(1).substream("s"))
    assert rows.shape == (6, 4)
    assert np.all(dist.sample_indices(6, Rng(1).substream("s")) == 0)
    assert np.allclose(rows, table.matrix[0])


def test_sample_batch_deterministic():
    table = random_table(50, 4, seed=1)
    freq = zipf_freq(table.vocab)
    dist = build_adjusted(freq, SamplerConfig())
    idx = dist.sample_indices(100, Rng(7).substream("s"))
    rows = sample_batch(dist, table, 100, Rng(7).substream("s"))
    assert np.array_equal(rows, table.matrix[idx])
    assert np.array_equal(rows, sample_batch(dist, table, 100, Rng(7).substream("s")))
    # the rows are the caller's own, not a view of the read-only table
    assert rows.flags.writeable and not np.shares_memory(rows, table.matrix)


def test_empirical_matches_exact_distribution():
    table = random_table(100, 3, seed=2)
    dist = build_adjusted(zipf_freq(table.vocab), SamplerConfig())
    idx = dist.sample_indices(1_000_000, Rng(3).substream("s"))
    emp = np.bincount(idx, minlength=100) / idx.size
    tv = 0.5 * np.abs(emp - dist.probabilities).sum()
    assert tv < 0.005


def test_two_batches_equal_one_double_batch_distribution():
    table = random_table(60, 3, seed=4)
    dist = build_adjusted(zipf_freq(table.vocab), SamplerConfig())
    n = 200_000
    a = dist.sample_indices(n, Rng(5).substream("x"))
    b = dist.sample_indices(n, Rng(6).substream("y"))
    c = dist.sample_indices(2 * n, Rng(7).substream("z"))
    emp_ab = np.bincount(np.concatenate([a, b]), minlength=60) / (2 * n)
    emp_c = np.bincount(c, minlength=60) / (2 * n)
    tv = 0.5 * np.abs(emp_ab - emp_c).sum()
    assert tv < 0.01


def test_distribution_validations():
    vocab = Vocabulary(["a", "b"])
    with pytest.raises(ValueError):
        AdjustedDistribution(vocab, [0.5, 0.4])
    with pytest.raises(ValueError):
        AdjustedDistribution(vocab, [1.0, 0.0])
    with pytest.raises(ValueError):
        SamplerConfig(subsample_threshold=0.0)
    with pytest.raises(ValueError):
        SamplerConfig(formula="nope")


def test_sample_batch_vocab_mismatch():
    t1 = random_table(5, 3, seed=5, prefix="a")
    t2 = random_table(5, 3, seed=6, prefix="b")
    dist = build_adjusted(FrequencyTable.uniform(t1.vocab), SamplerConfig())
    with pytest.raises(ValueError, match="vocabulary"):
        sample_batch(dist, t2, 4, Rng(8))
