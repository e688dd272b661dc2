import warnings

import numpy as np
import pytest

from xlingmap import embed_io, evaluation, layers
from xlingmap.embed_io import EmbeddingTable, Vocabulary
from xlingmap.evaluation import (
    BilingualDictionary,
    SyntheticSpec,
    collapse_metric,
    distribution_match_report,
    knn,
    monitor_accuracy,
    precision_at_k,
    synth_generate,
)
from xlingmap.models import Discriminator, ModelConfig
from xlingmap.numerics import Rng

from conftest import as_table, cosine, random_table


def brute_force_knn(query, table, k):
    sims = [(cosine(query, table.matrix[i]), i) for i in range(len(table.vocab))]
    sims.sort(key=lambda t: (-t[0], t[1]))
    return [(i, s) for s, i in sims[:k]]


def assert_matches_brute_force(queries, table, k):
    rows, sims = knn(queries, table, k)
    assert rows.shape == sims.shape == (len(queries.vocab), k)
    for q, got_rows, got_sims in zip(queries.matrix, rows, sims):
        want = brute_force_knn(q, table, k)
        assert list(got_rows) == [i for i, _ in want]
        assert np.max(np.abs(got_sims - [s for _, s in want])) < 1e-12
    # below k = V the top k are selected, at k = V every score is sorted:
    # the selection gives the sort's first k places, bit for bit
    full_rows, full_sims = knn(queries, table, len(table.vocab))
    assert np.array_equal(rows, full_rows[:, :k])
    assert np.array_equal(sims.view(np.uint64), full_sims[:, :k].view(np.uint64))


def test_knn_exact_row_ranks_first():
    t = random_table(20, 5, seed=0)
    rows, sims = knn(as_table(t.matrix[[7]]), t, 3)
    assert rows[0, 0] == 7
    assert sims[0, 0] == pytest.approx(1.0)


def test_knn_full_ranking_is_permutation():
    t = random_table(12, 4, seed=1)
    rows, sims = knn(as_table(np.ones((1, 4))), t, 12)
    assert sorted(rows[0]) == list(range(12))
    assert list(sims[0]) == sorted(sims[0], reverse=True)


def test_knn_matches_brute_force_oracle(monkeypatch):
    rng = np.random.default_rng(3)
    t = random_table(20, 6, seed=2)
    assert_matches_brute_force(as_table(rng.normal(size=(5, 6))), t, 8)
    # duplicate target rows tie exactly: the lower row wins, as in the oracle
    dup = EmbeddingTable(t.vocab, t.matrix[[0, 1, 2, 3, 0, 1, 4, 0, 5, 6] * 2])
    assert_matches_brute_force(as_table(np.vstack([dup.matrix[:3],
                                                   rng.normal(size=(4, 6))])), dup, 20)
    # a table ranked against another in both directions, and against itself
    src = random_table(12, 6, seed=4, prefix="s")
    for queries, targets in ((src, t), (t, src), (src, src), (dup, dup)):
        for k in (1, 5, len(targets.vocab)):
            assert_matches_brute_force(queries, targets, k)
    # against itself, each row ranks first the first row equal to it: itself
    # when its row is distinct
    rows, sims = knn(dup, dup, 1)
    first = [next(j for j in range(i + 1) if np.array_equal(row, dup.matrix[j]))
             for i, row in enumerate(dup.matrix)]
    assert rows[:, 0].tolist() == first and np.max(np.abs(sims - 1.0)) < 1e-12
    assert knn(src, src, 1)[0][:, 0].tolist() == list(range(12))
    # each table's norms are computed once, by the first ranking that uses
    # them, and the same array serves both directions
    computed = []

    def counting(matrix):
        computed.append(len(matrix))
        return layers._row_norms(matrix)

    monkeypatch.setattr(embed_io, "_row_norms", counting)
    a, b = random_table(7, 6, seed=5, prefix="a"), random_table(9, 6, seed=6, prefix="b")
    knn(a, b, 3)
    norms = a.row_norms(), b.row_norms()
    knn(b, a, 3)
    assert computed == [7, 9]
    assert a.row_norms() is norms[0] and b.row_norms() is norms[1]


def test_knn_blocks_match_brute_force(monkeypatch):
    # three query rows per block: 8 queries span two full blocks and a partial one
    monkeypatch.setattr(evaluation, "KNN_BLOCK", 3 * 25 + 2)
    t = random_table(25, 4, seed=21)
    queries = as_table(np.random.default_rng(22).normal(size=(8, 4)))
    for k in (1, 6, 24, 25):
        assert_matches_brute_force(queries, t, k)

    rng = np.random.default_rng(26)
    # integer rows and axis queries: the scores t_j / |t| take few values,
    # and ties straddle the k-th place
    lattice = rng.integers(-2, 3, size=(40, 3)).astype(float)
    lattice[~lattice.any(axis=1), 0] = 1.0
    t = EmbeddingTable(Vocabulary([f"w{i}" for i in range(40)]), lattice)
    monkeypatch.setattr(evaluation, "KNN_BLOCK", 3 * 40)
    axes = as_table(np.vstack([np.eye(3), -np.eye(3), 4.0 * np.eye(3)]))
    _, sims = knn(axes, t, 40)
    assert all(np.any(sims[:, k - 1] == sims[:, k]) for k in (1, 5, 6, 7, 39))
    for k in (1, 5, 6, 7, 39, 40):
        assert_matches_brute_force(axes, t, k)

    # duplicate target rows, ranked both within and beyond the first k
    base = random_table(10, 4, seed=27)
    dup = EmbeddingTable(Vocabulary([f"w{i}" for i in range(30)]),
                         base.matrix[rng.integers(0, 10, size=30)])
    monkeypatch.setattr(evaluation, "KNN_BLOCK", 3 * 30)
    queries = as_table(np.vstack([dup.matrix[[0, 5, 29]], rng.normal(size=(5, 4))]))
    for k in (1, 2, 3, 4, 29, 30):
        assert_matches_brute_force(queries, dup, k)

    # targets parallel to the query tie at exactly 1.0 (and at -1.0 for the
    # opposite query), some only after the clip: their quotients round past 1
    v = np.array([1.0, 2.0, 3.0])
    scales = [1, 3, 5, 6, 7, 9, 10, 11, 13, 0.1, 0.3, 0.7]
    clipped = rng.normal(size=(20, 3))
    parallel = [2, 3, 7, 8, 11, 12, 13, 15, 16, 17, 18, 19]
    clipped[parallel] = np.multiply.outer(scales, v)
    t = EmbeddingTable(Vocabulary([f"w{i}" for i in range(20)]), clipped)
    monkeypatch.setattr(evaluation, "KNN_BLOCK", 20)
    queries = as_table(np.vstack([v, 4.0 * v, -v]))
    rows, sims = knn(queries, t, 12)
    assert np.array_equal(rows[:2], [parallel] * 2) and np.all(sims[:2] == 1.0)
    for k in (1, 5, 12, 13, 19, 20):
        assert_matches_brute_force(queries, t, k)

    # a finite target row whose norm overflows scores NaN, which the full
    # sort ranks last: a block holding it is sorted whole
    huge = EmbeddingTable(Vocabulary([f"w{i}" for i in range(10)]),
                          np.vstack([rng.normal(size=(4, 8)), np.full(8, 1e308),
                                     rng.normal(size=(5, 8))]))
    queries = as_table(np.abs(rng.normal(size=(3, 8))))
    monkeypatch.setattr(evaluation, "KNN_BLOCK", 20)
    with np.errstate(over="ignore", invalid="ignore"):
        full_rows, full_sims = knn(queries, huge, 10)
        assert np.all(full_rows[:, -1] == 4) and np.isnan(full_sims[:, -1]).all()
        for k in range(1, 10):
            rows, sims = knn(queries, huge, k)
            assert np.array_equal(rows, full_rows[:, :k])
            assert np.array_equal(sims.view(np.uint64), full_sims[:, :k].view(np.uint64))

    # the selection alone against the stable sort, on integer-valued scores
    # with heavy ties, signed zeros and rows holding NaN, partitioned whole
    # or one or two rows at a time
    for seed in range(200):
        rng = np.random.default_rng(seed)
        m, size = rng.integers(1, 6), rng.integers(2, 40)
        scores = rng.integers(-3, 4, size=(m, size)).astype(float)
        scores[scores == 0] = rng.choice([0.0, -0.0], size=int((scores == 0).sum()))
        if seed % 4 == 0:
            scores[rng.random(scores.shape) < 0.2] = np.nan
        for k in {1, int(rng.integers(1, size + 1)), size - 1, size}:
            want = np.argsort(-scores, axis=1, kind="stable")[:, :k]
            with monkeypatch.context() as patch:
                if seed % 3:
                    patch.setattr(evaluation, "PARTITION_BLOCK", size * (seed % 3))
                if k < size and not np.isnan(scores).any():
                    # below k = V, finite scores are never sorted whole
                    patch.setattr(np, "argsort", None)
                got = evaluation._top_k(scores, k)
            assert np.array_equal(got, want), (seed, k)


def test_knn_target_norms_by_blocks(monkeypatch):
    # the norms of blocks of rows are the whole table's, bit for bit, so knn
    # ranks and scores as with norms taken of the whole table at once
    rng = np.random.default_rng(31)
    m = rng.normal(size=(500, 37)) * 10.0 ** rng.integers(-150, 150, size=(500, 1))
    queries = rng.normal(size=(30, 37))
    whole = np.linalg.norm(m, axis=1)

    def tables():  # new ones each time: a table keeps the norms it computed
        return (as_table(queries),
                EmbeddingTable(Vocabulary([f"w{i}" for i in range(500)]), m))

    for block in (37, 37 * 7 + 3, 1000):
        monkeypatch.setattr(layers, "NORM_BLOCK", block)
        norms = layers._row_norms(m)
        assert np.array_equal(norms.view(np.uint64), whole.view(np.uint64))
        rows, sims = knn(*tables(), 10)
        with monkeypatch.context() as patch:
            patch.setattr(embed_io, "_row_norms", lambda a: np.linalg.norm(a, axis=1))
            want_rows, want_sims = knn(*tables(), 10)
        assert np.array_equal(rows, want_rows)
        assert np.array_equal(sims.view(np.uint64), want_sims.view(np.uint64))


def test_knn_scale_invariant_query():
    t = random_table(15, 4, seed=4)
    q = np.random.default_rng(5).normal(size=4)
    rows, sims = knn(as_table(np.vstack([q, 37.5 * q])), t, 5)
    assert np.array_equal(rows[0], rows[1])
    assert np.max(np.abs(sims[0] - sims[1])) < 1e-12


def test_knn_deterministic_tie_break():
    vocab = Vocabulary(["a", "b", "c"])
    # two identical rows tie exactly; lower row index wins
    t = EmbeddingTable(vocab, [[1.0, 0.0], [0.5, 0.5], [1.0, 0.0]])
    rows, _ = knn(as_table([[1.0, 0.0], [2.0, 0.0]]), t, 3)
    assert [[vocab.tokens[i] for i in r] for r in rows] == [["a", "c", "b"]] * 2


def test_knn_rejects_bad_input():
    t = random_table(5, 3, seed=6)
    ones = as_table(np.ones((2, 3)))
    # the query rows' tokens name their errors
    for queries, k, fragment in ((ones, 0, r"k=0 outside \[1, 5\]"),
                                 (ones, 6, r"k=6 outside \[1, 5\]"),
                                 (as_table(np.ones((2, 4))), 2,
                                  "queries have d=4, the targets d=3"),
                                 (as_table([[1.0, 0, 0], [0, 0, 0]]), 2,
                                  "zero row 'q1' in the queries"),
                                 # finite values whose norm overflows
                                 (as_table([[1.0, 0, 0], [1e300, 0, 1e300]]), 2,
                                  "query row 'q1' has a norm that is not finite")):
        with pytest.raises(ValueError, match=fragment), np.errstate(all="ignore"):
            knn(queries, t, k)
    # a zero target row scores NaN and ranks last, without a numpy warning
    holed = EmbeddingTable(t.vocab, np.vstack([t.matrix[:1], np.zeros((1, 3)),
                                               t.matrix[2:]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows, sims = knn(ones, holed, 5)
        assert np.all(rows[:, -1] == 1) and np.isnan(sims[:, -1]).all()
        assert not np.isnan(sims[:, :-1]).any()
        assert np.array_equal(knn(ones, holed, 2)[0], rows[:, :2])


def test_precision_identity_mapping():
    t = random_table(15, 4, seed=7)
    d = BilingualDictionary({tok: {tok} for tok in t.vocab.tokens})
    rep = precision_at_k(np.eye(4), t, t, d, 1)
    assert rep == {"precision": {"p@1": 1.0}, "resolvable": 15, "unresolvable": 0}


def test_precision_all_misses():
    src = random_table(6, 3, seed=8, prefix="s")
    tgt = random_table(6, 3, seed=9, prefix="t")
    # dictionary points at targets that are never near anything
    d = BilingualDictionary({f"s{i}": {"t0"} for i in range(6)})
    far = EmbeddingTable(
        tgt.vocab,
        np.vstack([np.full(3, 100.0), tgt.matrix[1:]]),
    )
    rep = precision_at_k(np.eye(3), src, far, d, 1)
    assert 0.0 <= rep["precision"]["p@1"] <= 1.0


def test_precision_monotone_in_k():
    src = random_table(20, 5, seed=10, prefix="s")
    tgt = random_table(20, 5, seed=11, prefix="t")
    d = BilingualDictionary({f"s{i}": {f"t{i}"} for i in range(20)})
    values = list(precision_at_k(np.eye(5), src, tgt, d, 20)["precision"].values())
    assert len(values) == 20
    assert list(values) == sorted(values)
    assert values[-1] == 1.0  # k = |vocab| always hits


def test_precision_matches_per_k_brute_force():
    src = random_table(30, 4, seed=23, prefix="s")
    base = random_table(15, 4, seed=24, prefix="t")
    # every target row twice, so accepted targets tie with rejected ones
    tgt = EmbeddingTable(Vocabulary([f"t{i}" for i in range(30)]),
                         np.vstack([base.matrix, base.matrix]))
    rng = np.random.default_rng(25)
    entries = {f"s{i}": {f"t{j}" for j in rng.choice(30, size=1 + i % 3, replace=False)}
               for i in range(30)}
    entries["missing"] = {"t0"}
    entries["s0"] = {"t3", "absent"}
    d = BilingualDictionary(entries)
    rep = precision_at_k(np.eye(4), src, tgt, d, 10)
    resolvable = [s for s in entries if s != "missing"]
    assert (rep["resolvable"], rep["unresolvable"]) == (30, 1)
    for k in range(1, 11):
        hits = 0
        for s in resolvable:
            top = {tgt.vocab.tokens[i] for i, _ in brute_force_knn(src.matrix[src.vocab.index(s)], tgt, k)}
            hits += bool(top & entries[s])
        assert rep["precision"][f"p@{k}"] == hits / 30


def test_precision_counts_unresolvable():
    src = random_table(5, 3, seed=12, prefix="s")
    tgt = random_table(5, 3, seed=13, prefix="t")
    d = BilingualDictionary({"s0": {"t0"}, "missing": {"t1"}, "s1": {"absent"}})
    rep = precision_at_k(np.eye(3), src, tgt, d, 2)
    assert rep["resolvable"] == 1
    assert rep["unresolvable"] == 2
    with pytest.raises(ValueError, match="resolvable"):
        precision_at_k(np.eye(3), src, tgt, BilingualDictionary({"nope": {"t0"}}), 1)


def test_collapse_identical_rows():
    rows = np.tile([0.3, -0.4, 0.5], (10, 1))
    cos, std = collapse_metric(rows)
    assert cos == pytest.approx(1.0)
    assert std == pytest.approx(0.0)


def test_collapse_orthonormal_basis():
    cos, _ = collapse_metric(np.eye(8))
    assert cos == pytest.approx(0.0, abs=1e-12)


def test_collapse_matches_pairwise_loop():
    rng = np.random.default_rng(14)
    x = rng.normal(size=(30, 7))
    cos, std = collapse_metric(x)
    total = 0.0
    m = x.shape[0]
    for i in range(m):
        for j in range(i + 1, m):
            total += cosine(x[i], x[j])
    expected = total / (m * (m - 1) / 2)
    assert cos == pytest.approx(expected, abs=1e-12)
    assert std == pytest.approx(np.mean(np.std(x, axis=0)), rel=1e-12)


def test_collapse_random_gaussian_is_low():
    x = np.random.default_rng(15).normal(size=(100, 50))
    cos, _ = collapse_metric(x)
    assert cos < 0.2


def test_collapse_invariances():
    rng = np.random.default_rng(16)
    x = rng.normal(size=(12, 5))
    base = collapse_metric(x)[0]
    perm = rng.permutation(12)
    assert collapse_metric(x[perm])[0] == pytest.approx(base)
    scales = rng.uniform(0.5, 4.0, size=(12, 1))
    assert collapse_metric(x * scales)[0] == pytest.approx(base)


def test_collapse_tolerates_zero_rows():
    # the cosine is taken over the nonzero rows, the spread over all rows;
    # fewer than two nonzero rows is complete collapse
    x = np.random.default_rng(21).normal(size=(6, 3))
    holed = np.vstack([x[:2], np.zeros((2, 3)), x[2:]])
    cos, std = collapse_metric(holed)
    assert cos == collapse_metric(x)[0]
    assert std == float(holed.std(axis=0).mean())
    assert collapse_metric(np.zeros((4, 3))) == (1.0, 0.0)
    one = np.zeros((4, 3))
    one[2] = [1.0, 2.0, 3.0]
    assert collapse_metric(one)[0] == 1.0


def test_synth_noise_zero_exact_mapping():
    spec = SyntheticSpec(dim=8, source_size=50, target_size=50, noise_sigma=0.0,
                         seed=3)
    data = synth_generate(spec)
    q = data.map_matrix
    assert np.max(np.abs(q.T @ q - np.eye(8))) < 1e-10
    assert np.array_equal(data.tgt.matrix, data.src.matrix @ q)


def test_synth_reproducible():
    spec = SyntheticSpec(dim=5, source_size=20, target_size=30, seed=11)
    a = synth_generate(spec)
    b = synth_generate(spec)
    assert np.array_equal(a.src.matrix, b.src.matrix)
    assert np.array_equal(a.tgt.matrix, b.tgt.matrix)
    assert np.array_equal(a.src_freq, b.src_freq) and np.array_equal(a.tgt_freq, b.tgt_freq)
    assert a.truth.entries == b.truth.entries


def test_synth_oracle_precision():
    spec = SyntheticSpec(dim=6, source_size=40, target_size=40, noise_sigma=0.0,
                         seed=5)
    data = synth_generate(spec)
    rep = precision_at_k(data.map_matrix, data.src, data.tgt, data.truth, 1)
    assert rep["precision"] == {"p@1": 1.0}


def test_synth_zipf_counts_positive_decreasing():
    data = synth_generate(SyntheticSpec(dim=3, source_size=30, target_size=30))
    counts = data.src_freq.tolist()
    assert data.src_freq.dtype == np.int64 and len(counts) == len(data.src.vocab)
    assert all(c >= 1 for c in counts)
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def naive_covariance(x):
    m, d = x.shape
    mu = [sum(x[i][j] for i in range(m)) / m for j in range(d)]
    cov = np.zeros((d, d))
    for a in range(d):
        for b in range(d):
            cov[a, b] = sum(
                (x[i][a] - mu[a]) * (x[i][b] - mu[b]) for i in range(m)
            ) / (m - 1)
    return cov


def monitor(dim, seed=19):
    """A discriminator whose output layer is not at zero, so it does not
    score everything 0.5."""
    disc = Discriminator("d", ModelConfig(dim=dim, block_dim=4, depth=2), Rng(seed))
    disc.output.value[...] = np.random.default_rng(seed).normal(size=(4, 1))
    return disc


def test_match_report_identical_samples():
    x = np.random.default_rng(17).normal(size=(40, 5))
    rep = distribution_match_report(x, x.copy(), monitor(5))
    assert rep["mean_diff"] == pytest.approx(0.0)
    assert rep["cov_frobenius_error"] == pytest.approx(0.0)
    # each row is right exactly once: as a target or as a mapped row
    assert rep["monitor_accuracy"] == 0.5


def test_match_report_covariance_against_naive_oracle():
    rng = np.random.default_rng(18)
    a = np.vstack([np.tile([1.0, 2.0], (10, 1)), np.tile([-1.0, 0.0], (10, 1))])
    b = rng.normal(size=(20, 2))
    rep = distribution_match_report(a, b, monitor(2))
    ca, cb = naive_covariance(a), naive_covariance(b)
    expected = np.linalg.norm(ca - cb) / np.linalg.norm(cb)
    assert rep["cov_frobenius_error"] == pytest.approx(expected, rel=1e-10)


def test_match_report_untrained_monitor_tie_rule():
    # a zeroed output layer scores everything 0.5, which classifies as
    # negative: every target row is wrong, every mapped row is right
    cfg = ModelConfig(dim=4, block_dim=4, depth=2)
    disc = Discriminator("d", cfg, Rng(19))
    rng = np.random.default_rng(20)
    rep = distribution_match_report(
        rng.normal(size=(8, 4)), rng.normal(size=(8, 4)), disc
    )
    assert rep["monitor_accuracy"] == pytest.approx(0.5)
    assert monitor_accuracy(np.array([[0.5], [0.7]]), np.array([[0.5], [0.2]])) == 0.75


def test_match_report_shape_mismatch():
    with pytest.raises(ValueError):
        distribution_match_report(np.ones((4, 3)), np.ones((4, 2)), monitor(3))


def test_dictionary_round_trip(tmp_path):
    d = BilingualDictionary({"a": {"x", "y"}, "b": {"z"}})
    path = tmp_path / "d.tsv"
    d.save(path)
    back = BilingualDictionary.load(path)
    assert back.entries == d.entries
    d.save(tmp_path / "d2.tsv")
    assert (tmp_path / "d.tsv").read_bytes() == (tmp_path / "d2.tsv").read_bytes()
