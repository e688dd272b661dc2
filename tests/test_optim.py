import numpy as np
import pytest

from xlingmap.optim import Adam, NumericFailure, Param


def make_param(name, value):
    return Param(name, value)


def test_zero_gradient_leaves_params():
    p = make_param("w", [1.0, -2.0])
    opt = Adam([p], lr=0.1)
    opt.step()
    assert np.array_equal(p.value, [1.0, -2.0])
    assert opt.t == 1


def test_single_step_scalar_reference():
    # scalar param 0, constant gradient 1: bias-corrected ratio is ~1,
    # so the first step moves by ~ -lr
    p = make_param("w", [0.0])
    opt = Adam([p], lr=0.001)
    p.grad[...] = 1.0
    opt.step()
    m_hat = 0.1 / (1 - 0.9)
    v_hat = 0.001 / (1 - 0.999)
    expected = -0.001 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert p.value[0] == pytest.approx(expected, rel=1e-12)
    assert p.value[0] == pytest.approx(-0.001, rel=1e-6)
    # a second step with gradient -2 weighs the two gradients by beta1 = 0.9
    # and beta2 = 0.999
    p.grad[...] = -2.0
    opt.step()
    m_hat = (0.9 * 0.1 + 0.1 * -2.0) / (1 - 0.9**2)
    v_hat = (0.999 * 0.001 + 0.001 * 4.0) / (1 - 0.999**2)
    expected -= 0.001 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert p.value[0] == pytest.approx(expected, rel=1e-12)


def test_first_step_moves_against_gradient_sign():
    rng = np.random.default_rng(0)
    for seed in range(5):
        g = np.random.default_rng(seed).normal(size=7)
        g[np.abs(g) < 1e-3] = 1.0
        p = make_param("w", np.zeros(7))
        opt = Adam([p], lr=0.01)
        p.grad[...] = g
        opt.step()
        assert np.all(np.sign(p.value) == -np.sign(g))


def test_step_size_bounded_after_warmup():
    rng = np.random.default_rng(1)
    p = make_param("w", np.zeros(16))
    opt = Adam([p], lr=0.005)
    for i in range(1000):
        p.grad[...] = rng.normal(size=16)
        before = p.value.copy()
        opt.step()
        if i >= 50:
            assert np.max(np.abs(p.value - before)) <= 0.005 * 1.1


def test_identical_streams_identical_trajectories():
    def run():
        p = make_param("w", np.linspace(-1, 1, 6))
        opt = Adam([p], lr=0.01)
        rng = np.random.default_rng(42)
        for _ in range(50):
            p.grad[...] = rng.normal(size=6)
            opt.step()
        return p.value.copy()

    assert np.array_equal(run(), run())


def test_state_round_trip_continues_bit_identically():
    rng = np.random.default_rng(2)
    grads = rng.normal(size=(40, 5))

    p1 = make_param("w", np.zeros(5))
    opt1 = Adam([p1], lr=0.01)
    for g in grads:
        p1.grad[...] = g
        opt1.step()

    p2 = make_param("w", np.zeros(5))
    opt2 = Adam([p2], lr=0.01)
    for g in grads[:20]:
        p2.grad[...] = g
        opt2.step()
    mid_value = p2.value.copy()

    # restore the way a checkpoint resume does: the step counter, and the
    # moments copied into the fresh optimizer's own buffers
    p3 = make_param("w", mid_value)
    opt3 = Adam([p3], lr=0.01)
    opt3.t = opt2.t
    opt3.m["w"][...] = opt2.m["w"]
    opt3.v["w"][...] = opt2.v["w"]
    for g in grads[20:]:
        p3.grad[...] = g
        opt3.step()

    assert np.array_equal(p1.value, p3.value)


def test_non_finite_gradient_aborts_step():
    p = make_param("w", [1.0, 2.0])
    q = make_param("u", [3.0])
    opt = Adam([p, q], lr=0.1)
    p.grad[...] = [1.0, np.nan]
    q.grad[...] = 1.0
    with pytest.raises(NumericFailure, match="'w'"):
        opt.step()
    # nothing moved and the counter did not advance
    assert np.array_equal(p.value, [1.0, 2.0])
    assert np.array_equal(q.value, [3.0])
    assert opt.t == 0


def test_large_finite_gradient_steps():
    # 1e150 + 1e150 and 1e150 squared are finite: the step goes through
    p = make_param("w", [1.0, 2.0])
    opt = Adam([p], lr=0.1)
    p.grad[...] = [1e150, 1e150]
    opt.step()
    assert opt.t == 1
    assert np.all(np.isfinite(p.value))
    assert np.all(np.isfinite(opt.v["w"]))
    # a finite 1e308 squares to inf, which would pin its second moment at
    # inf and its update at m / inf = 0 for good: the step raises instead
    before = [a.copy() for a in (opt.value, opt.m_flat, opt.v_flat)]
    p.grad[...] = [1e308, 0.0]
    with pytest.raises(NumericFailure, match="'w'"):
        opt.step()
    assert opt.t == 1
    assert all(np.array_equal(a, b) for a, b in
               zip((opt.value, opt.m_flat, opt.v_flat), before))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_gradient_names_first_holder(bad):
    params = [make_param(name, np.zeros(3)) for name in ("a", "b", "c")]
    opt = Adam(params, lr=0.1)
    params[1].grad[...] = [0.0, bad, 0.0]
    params[2].grad[...] = bad
    with pytest.raises(NumericFailure, match="'b'"):
        opt.step()
    assert opt.t == 0
    assert all(not np.any(p.value) for p in params)


def test_params_are_views_of_the_group_buffers():
    p = make_param("w", np.arange(6.0).reshape(2, 3))
    q = make_param("u", [7.0])
    opt = Adam([p, q], lr=0.1)
    assert np.array_equal(opt.value, [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0])
    assert p.value.shape == (2, 3) and np.shares_memory(p.value, opt.value)
    p.grad[...] = 1.0
    q.grad[...] = -1.0
    opt.step()
    assert np.allclose(opt.m["w"], np.full((2, 3), 0.1), rtol=1e-15)
    assert np.allclose(opt.m["u"], [-0.1], rtol=1e-15)
    assert np.allclose(p.value, np.arange(6.0).reshape(2, 3) - 0.1)
    assert np.allclose(q.value, [7.1])
