import json
import math

import numpy as np
import pytest

from xlingmap.numerics import NumericsError, Rng

from conftest import cosine, grad_check


def test_cosine_basic_values():
    x = np.array([0.3, -1.2, 2.0])
    assert cosine(x, x) == 1.0
    assert cosine([1, 0], [0, 1]) == 0.0
    assert cosine([1, 0], [-1, 0]) == -1.0


def test_cosine_scale_invariance():
    rng = np.random.default_rng(5)
    for _ in range(10):
        u = rng.normal(size=4)
        v = rng.normal(size=4)
        a, b = rng.uniform(0.1, 50, size=2)
        assert abs(cosine(a * u, b * v) - cosine(u, v)) < 1e-12


def test_cosine_zero_vector_rejected():
    with pytest.raises(ValueError):
        cosine([0.0, 0.0], [1.0, 0.0])


def test_grad_check_quadratic():
    err = grad_check(lambda x: float(x @ x), lambda x: 2.0 * x,
                     np.array([1.0, 2.0]), eps=1e-5)
    assert err < 1e-9


def test_grad_check_constant():
    err = grad_check(lambda x: 3.0, lambda x: np.zeros_like(x),
                     np.array([0.5, -0.5, 2.0]))
    assert err == 0.0


def test_grad_check_sum_of_sines():
    rng = np.random.default_rng(9)
    x0 = rng.normal(size=6)
    err = grad_check(lambda x: float(np.sum(np.sin(x))), np.cos, x0, eps=1e-5)
    assert err < 1e-7


def test_grad_check_flags_wrong_gradient():
    err = grad_check(lambda x: float(x @ x), lambda x: 2.5 * x,
                     np.array([1.0, 2.0]))
    assert err > 1e-2


def test_rng_same_seed_same_stream():
    a = Rng(123).normal(size=8)
    b = Rng(123).normal(size=8)
    assert np.array_equal(a, b)


def test_rng_substreams_independent_of_interleaving():
    r1 = Rng(7)
    sampler1 = r1.substream("sampler")
    seq_a = sampler1.uniform(size=5)

    r2 = Rng(7)
    # consuming a different substream first must not perturb "sampler"
    r2.substream("dropout").uniform(size=100)
    seq_b = r2.substream("sampler").uniform(size=5)
    assert np.array_equal(seq_a, seq_b)


def test_rng_distinct_substreams_differ():
    r = Rng(7)
    assert not np.array_equal(r.substream("a").uniform(size=8),
                              r.substream("b").uniform(size=8))


def test_rng_state_json_round_trip():
    r = Rng(99).substream("sampler")
    r.uniform(size=13)
    state = json.loads(json.dumps(r.get_state()))
    fresh = Rng(0)
    fresh.set_state(state)
    assert np.array_equal(r.uniform(size=6), fresh.uniform(size=6))


def test_rng_rejects_foreign_state():
    r = Rng(1)
    with pytest.raises(NumericsError):
        r.set_state({"algorithm": "other", "seed": 1, "name": "root", "state": {}})


def test_keep_mask_reads_raw_words_as_little_endian_u16():
    shape = (3, 7)
    raw = Rng(5)._gen.bit_generator.random_raw(6)  # ceil(21 / 4) words
    bits = np.frombuffer(raw.astype("<u8").tobytes(), dtype="<u2")[:21]
    # the second rate puts the first value just under the threshold: the
    # threshold rounds rate * 2**16 up, so that unit is dropped
    for rate in (0.3, (bits[0] + 0.5) / 65536):
        expected = (bits >= math.ceil(rate * 65536)).reshape(shape)
        kept = Rng(5).keep_mask(shape, rate)
        assert kept.dtype == bool and np.array_equal(kept, expected)
    assert not kept[0, 0]


def test_keep_mask_keep_probability():
    # the threshold ceil(rate * 2**16) moves the keep probability by less
    # than 2**-16, far below the sampling error of 10**6 draws
    for rate in (0.1, 0.3, 0.5):
        kept = Rng(6).substream(str(rate)).keep_mask((1000, 1000), rate)
        sigma = math.sqrt(rate * (1.0 - rate) / kept.size)
        assert abs(kept.mean() - (1.0 - rate)) < 5.0 * sigma
        exact = 1.0 - math.ceil(rate * 65536) / 65536
        assert 0.0 <= (1.0 - rate) - exact < 2.0**-16


def test_keep_mask_state_round_trip():
    r = Rng(8).substream("dropout")
    r.keep_mask((5, 3), 0.1)
    fresh = Rng(0)
    fresh.set_state(json.loads(json.dumps(r.get_state())))
    assert np.array_equal(r.keep_mask((4, 9), 0.2), fresh.keep_mask((4, 9), 0.2))
