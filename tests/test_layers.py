import math

import numpy as np
import pytest

from xlingmap.layers import (
    adversarial_loss,
    bce_loss,
    cosine_dissim_loss,
    sigmoid,
)
from xlingmap import models
from xlingmap.models import PROB_CLAMP, Discriminator, ModelConfig
from xlingmap.numerics import Rng

from conftest import FixedRng, disc_grad_errors, final_state, grad_check, probe

GRAD_TOL = 1e-4
EPS = 1e-5


def test_linear_identity_weight():
    # with zero block weights every block is the identity, which leaves the
    # two linear layers: the score's logit is x @ W_in @ w + b
    disc = Discriminator("d", ModelConfig(dim=5, block_dim=4, depth=2), Rng(0))
    for weight, _, _ in disc.blocks:
        weight.value[...] = 0.0
    rng = np.random.default_rng(0)
    disc.output.value[...] = rng.normal(size=(4, 1)) * 0.3
    disc.output_bias.value[...] = 0.2
    x = rng.normal(size=(3, 5))
    p = disc.forward(x, Rng(1), training=False)
    logit = x @ disc.input.value @ disc.output.value + 0.2
    assert np.max(np.abs(np.log(p / (1.0 - p)) - logit)) < 1e-12


def _live_disc(seed, **cfg):
    disc = Discriminator("d", ModelConfig(dim=4, block_dim=3, depth=2, **cfg), Rng(seed))
    disc.output.value[...] = np.random.default_rng(seed).normal(size=(3, 1))
    return disc


def test_linear_grad_check():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(5, 4))
    errors = disc_grad_errors(_live_disc(1, dropout_rate=0.0), x, np.ones((5, 3)),
                              rng.normal(size=(5, 1)), EPS)
    for name in ("d.input.weight", "d.output.weight", "d.output.bias"):
        assert errors[name] < GRAD_TOL, name


def test_linear_input_grad_check():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(5, 4))
    errors = disc_grad_errors(_live_disc(2, dropout_rate=0.0), x, np.ones((5, 3)),
                              rng.normal(size=(5, 1)), EPS)
    assert errors["input"] < GRAD_TOL


def test_tied_gradient_accumulates_both_uses():
    # reconstruction alone uses the one weight twice, as f @ W and e_hat @ W.T;
    # the generator pass must return the sum of both contributions
    from xlingmap.models import build_models
    from xlingmap.training import TrainConfig, _joint_pass

    rng = np.random.default_rng(5)
    model = ModelConfig(dim=4, block_dim=3, depth=1)
    cfg = TrainConfig(model=model, lambda_r=2.0, lambda_a=0.0, lambda_c=0.0)
    enc, disc, _ = build_models(model, Rng(5))
    x = rng.normal(size=(3, 4))
    e = rng.normal(size=(3, 4))
    w0 = rng.normal(size=(4, 4)) + np.eye(4)

    def run(vec):
        enc.weight.value[...] = vec.reshape(4, 4)
        return _joint_pass(cfg, enc, disc, x, e, FixedRng(np.ones((6, 3))))

    assert grad_check(lambda v: run(v)[1]["loss_total"],
                      lambda v: run(v)[3].ravel(), w0.ravel(), eps=EPS) < GRAD_TOL


def test_leaky_relu_values_and_grad(monkeypatch):
    # values: batch norm maps the column [1, 3] to [-1, 1], which the block's
    # leaky ReLU turns into [-slope, 1] on top of the residual
    monkeypatch.setattr(models, "BN_EPS", 1e-12)
    disc = probe(1, leaky_slope=0.25, dropout_rate=0.0)
    disc.blocks[0][0].value[...] = 1.0
    x = np.array([[1.0], [3.0]])
    assert np.allclose((final_state(disc, x) - x).ravel(), [-0.25, 1.0], atol=1e-6)
    # the slope is validated once, where the model is configured
    for bad in (0.0, -0.1, 1.0, 1.5):
        with pytest.raises(ValueError, match="leaky slope"):
            ModelConfig(dim=2, leaky_slope=bad)
    # gradient: slope below zero, 1 above, checked through a block whose
    # normalized pre-activations take both signs
    disc = probe(2, leaky_slope=0.25, dropout_rate=0.0)
    disc.output.value[...] = [[1.0], [-0.5]]
    x = np.array([[1.0, -2.0], [-0.5, 3.0], [2.0, 0.5]])
    errors = disc_grad_errors(disc, x, np.ones((3, 2)), np.ones((3, 1)), EPS)
    assert errors["input"] < GRAD_TOL
    assert errors["d.block0.weight"] < GRAD_TOL


def test_batchnorm_two_point_column(monkeypatch):
    monkeypatch.setattr(models, "BN_EPS", 1e-12)
    disc = probe(1, dropout_rate=0.0)
    disc.blocks[0][0].value[...] = 1.0
    # bn([1, 3]) = [-1, 1]; leaky_relu -> [-0.01, 1]; plus the residual
    out = final_state(disc, np.array([[1.0], [3.0]]))
    assert np.allclose(out.ravel(), [0.99, 4.0], atol=1e-6)


def test_batchnorm_gamma_zero_gives_beta():
    disc = probe(3, dropout_rate=0.0)
    _, gamma, beta = disc.blocks[0]
    gamma.value[...] = 0.0
    beta.value[...] = 7.0
    x = np.random.default_rng(0).normal(size=(6, 3))
    assert np.allclose(final_state(disc, x) - x, 7.0)


def test_batchnorm_output_statistics():
    disc = probe(8, dropout_rate=0.0)
    weight, _, beta = disc.blocks[0]
    weight.value[...] = np.eye(8)
    # a shift of 10 keeps every normalized entry (|z| <= sqrt(63)) on the
    # identity side of the leaky ReLU
    beta.value[...] = 10.0
    x = np.random.default_rng(1).normal(loc=3.0, scale=2.5, size=(64, 8))
    out = final_state(disc, x) - x - 10.0
    assert np.max(np.abs(out.mean(axis=0))) < 1e-12
    assert np.max(np.abs(out.var(axis=0) - 1.0)) < 1e-4


def test_batchnorm_inference_takes_one_row():
    # training batches have n >= 2 rows (TrainConfig.batch_size); inference
    # normalizes with the running statistics, so one row is enough
    assert probe(2).forward(np.ones((1, 2)), training=False).shape == (1, 1)


def test_batchnorm_inference_uses_running_stats(monkeypatch):
    monkeypatch.setattr(models, "BN_MOMENTUM", 0.5)
    disc = probe(2, dropout_rate=0.0)
    disc.blocks[0][0].value[...] = np.eye(2)
    disc.output.value[...] = 1.0
    rng = np.random.default_rng(2)
    for _ in range(30):
        disc.forward(rng.normal(loc=2.0, size=(32, 2)))
    running_mean, _ = disc.running[0]
    assert np.max(np.abs(running_mean - 2.0)) < 0.5
    # inference normalizes every row with the running statistics, so a
    # row's score does not depend on the rest of the batch
    x = rng.normal(size=(5, 2))
    batch = disc.forward(x, training=False)
    single = np.vstack([disc.forward(x[i:i + 1], training=False) for i in range(5)])
    assert np.max(np.abs(batch - single)) < 1e-15
    assert np.array_equal(batch, disc.forward(x, training=False))


def test_batchnorm_grad_check_training_mode():
    rng = np.random.default_rng(3)
    disc = _live_disc(3, dropout_rate=0.0)
    for _, gamma, beta in disc.blocks:
        gamma.value[...] = rng.normal(size=3)
        beta.value[...] = rng.normal(size=3)
    errors = disc_grad_errors(disc, rng.normal(size=(6, 4)), np.ones((6, 3)),
                              rng.normal(size=(6, 1)), EPS)
    for i in range(2):
        for group in ("bn.gamma", "bn.beta"):
            assert errors[f"d.block{i}.{group}"] < GRAD_TOL
    assert errors["input"] < GRAD_TOL


def test_dropout_rate_zero_is_identity():
    # rate 0 draws no mask: training mode runs without an rng
    x = np.random.default_rng(4).normal(size=(5, 3))
    disc = probe(3, dropout_rate=0.0)
    disc.output.value[...] = 1.0
    assert np.array_equal(disc.forward(x), disc.forward(x, Rng(0)))


def test_dropout_inference_is_identity():
    x = np.random.default_rng(5).normal(size=(5, 3))
    heavy = probe(3, dropout_rate=0.9)
    none = probe(3, dropout_rate=0.0)
    for disc in (heavy, none):
        disc.output.value[...] = 1.0
    assert np.array_equal(heavy.forward(x, training=False),
                          none.forward(x, training=False))


def test_dropout_preserves_expectation():
    # zero input and gamma: the branch is exactly 1 before dropout, and the
    # output layer averages the k dropped-out entries of each row
    k, n = 100, 1000
    disc = probe(k, dropout_rate=0.5)
    disc.input.value[...] = 0.0
    _, gamma, beta = disc.blocks[0]
    gamma.value[...] = 0.0
    beta.value[...] = 1.0
    disc.output.value[...] = 1.0 / k
    p = disc.forward(np.ones((n, k)), Rng(6).substream("dropout"))
    assert 0.99 < np.log(p / (1.0 - p)).mean() < 1.01


def test_dropout_backward_uses_same_mask():
    # the analytic gradient after a draw from Rng(7) agrees with finite
    # differences that replay exactly that draw
    rng = np.random.default_rng(7)
    disc = probe(5, dropout_rate=0.3)
    disc.output.value[...] = rng.normal(size=(5, 1))
    x0 = rng.normal(size=(6, 5))
    readout = rng.normal(size=(6, 1))
    kept = Rng(7).keep_mask((6, 5), 0.3)
    assert np.mean(~kept) > 0.1  # some entries really are dropped

    def f(vec):
        return float(np.sum(disc.forward(vec.reshape(6, 5), Rng(7)) * readout))

    def grad(vec):
        disc.forward(vec.reshape(6, 5), Rng(7))
        return disc.backward(np.stack([readout, readout])).ravel()

    assert grad_check(f, grad, x0.ravel(), eps=EPS) < GRAD_TOL


def test_resblock_zero_weight_is_identity():
    disc = probe(4, dropout_rate=0.0)
    disc.blocks[0][0].value[...] = 0.0
    x = np.random.default_rng(8).normal(size=(6, 4))
    assert np.array_equal(final_state(disc, x), x)


def test_resblock_inference_deterministic():
    rng = np.random.default_rng(9)
    disc = probe(4, dropout_rate=0.5)
    disc.output.value[...] = rng.normal(size=(4, 1))
    disc.forward(rng.normal(size=(8, 4)), Rng(1).substream("d"))
    x = rng.normal(size=(5, 4))
    assert np.array_equal(disc.forward(x, training=False),
                          disc.forward(x, training=False))


def test_resblock_full_grad_check():
    rng = np.random.default_rng(10)
    disc = probe(5, dropout_rate=0.3)
    disc.blocks[0][0].value[...] = rng.normal(size=(5, 5))
    disc.output.value[...] = rng.normal(size=(5, 1))
    mask_uniforms = rng.uniform(size=(4, 5))  # frozen dropout field
    errors = disc_grad_errors(disc, rng.normal(size=(4, 5)), mask_uniforms,
                              rng.normal(size=(4, 1)), EPS)
    assert errors["input"] < GRAD_TOL
    assert errors["d.block0.weight"] < GRAD_TOL


def test_sigmoid_values():
    assert sigmoid(np.array([[0.0]]))[0, 0] == 0.5
    x = np.linspace(-30, 30, 13).reshape(1, -1)
    s = sigmoid(x) + sigmoid(-x)
    assert np.max(np.abs(s - 1.0)) < 1e-15
    assert sigmoid(np.array([[-800.0]]))[0, 0] == 0.0
    assert sigmoid(np.array([[800.0]]))[0, 0] == 1.0
    assert np.all(np.isfinite(sigmoid(np.array([[-1e5, 1e5]]))))


def test_sigmoid_grad_check():
    rng = np.random.default_rng(11)
    x0 = rng.normal(size=(3, 4))
    readout = rng.normal(size=(3, 4))

    def f(vec):
        return float(np.sum(sigmoid(vec.reshape(3, 4)) * readout))

    def grad(vec):
        out = sigmoid(vec.reshape(3, 4))
        return (readout * out * (1.0 - out)).ravel()

    assert grad_check(f, grad, x0.ravel(), eps=EPS) < GRAD_TOL


def cosine_value(a, b):
    return cosine_dissim_loss(a, b)[0]


def test_cosine_dissim_anchors():
    rng = np.random.default_rng(12)
    a = rng.normal(size=(5, 3))
    assert cosine_value(a, a.copy()) < 1e-15
    assert cosine_value(a, -a) == pytest.approx(2.0)
    ortho_a = np.tile([1.0, 0.0], (4, 1))
    ortho_b = np.tile([0.0, 1.0], (4, 1))
    assert cosine_value(ortho_a, ortho_b) == pytest.approx(1.0)


def test_cosine_dissim_symmetry_and_scale_invariance():
    rng = np.random.default_rng(13)
    a = rng.normal(size=(6, 4))
    b = rng.normal(size=(6, 4))
    assert cosine_value(a, b) == pytest.approx(cosine_value(b, a))
    scales = rng.uniform(0.1, 10.0, size=(6, 1))
    assert abs(cosine_value(a * scales, b) - cosine_value(a, b)) < 1e-12


def test_cosine_dissim_grad_check():
    rng = np.random.default_rng(14)
    a = rng.normal(size=(4, 3))
    b = rng.normal(size=(4, 3))

    def f_b(vec):
        return cosine_dissim_loss(a, vec.reshape(4, 3))[0]

    def grad_b(vec):
        return cosine_dissim_loss(a, vec.reshape(4, 3))[1].ravel()

    assert grad_check(f_b, grad_b, b.ravel(), eps=EPS) < GRAD_TOL


def test_adversarial_loss_anchors():
    assert adversarial_loss(np.full((4, 1), 0.5))[0] == pytest.approx(math.log(2))
    assert adversarial_loss(np.full((4, 1), 1.0 - PROB_CLAMP))[0] < 1e-10


def test_adversarial_loss_monotone():
    p = np.full((4, 1), 0.7)
    base = adversarial_loss(p)[0]
    p2 = p.copy()
    p2[2, 0] = 0.6
    assert adversarial_loss(p2)[0] > base


def test_adversarial_loss_grad_check():
    rng = np.random.default_rng(15)
    p0 = rng.uniform(0.1, 0.9, size=(5, 1))

    def f(vec):
        return adversarial_loss(vec.reshape(5, 1))[0]

    def grad(vec):
        return adversarial_loss(vec.reshape(5, 1))[1].ravel()

    assert grad_check(f, grad, p0.ravel(), eps=EPS) < GRAD_TOL


def test_bce_anchors():
    half = np.full((4, 1), 0.5)
    assert bce_loss(half, half)[0] == pytest.approx(math.log(2))
    assert bce_loss(np.full((4, 1), 1.0 - PROB_CLAMP), np.full((4, 1), PROB_CLAMP))[0] < 1e-10


@pytest.mark.parametrize("logit", [1e3, -1e3])
def test_saturated_discriminator_keeps_the_losses_finite(logit):
    # the losses' anchors at p = 0 and 1 hold in the discriminator: its
    # output is clamped to [PROB_CLAMP, 1 - PROB_CLAMP], which both losses
    # take without a clamp of their own
    disc = _live_disc(18, dropout_rate=0.0)
    disc.output_bias.value[...] = logit
    p = disc.forward(np.random.default_rng(18).normal(size=(8, 4)), Rng(18))
    assert np.all(p == (1.0 - PROB_CLAMP if logit > 0 else PROB_CLAMP))
    for loss, grad in (adversarial_loss(p), bce_loss(p[:4], p[4:]),
                       bce_loss(p[4:], p[:4])):
        assert math.isfinite(loss) and np.isfinite(grad).all()


def test_bce_matches_scalar_loop():
    rng = np.random.default_rng(16)
    pp = rng.uniform(0.05, 0.95, size=(8, 1))
    pn = rng.uniform(0.05, 0.95, size=(8, 1))
    expected = 0.0
    for v in pp.ravel():
        expected += -math.log(v)
    for v in pn.ravel():
        expected += -math.log(1.0 - v)
    expected /= 16
    assert bce_loss(pp, pn)[0] == pytest.approx(expected, rel=1e-12)


def test_bce_grad_check():
    rng = np.random.default_rng(17)
    pp = rng.uniform(0.1, 0.9, size=(3, 1))
    pn = rng.uniform(0.1, 0.9, size=(3, 1))

    def f(vec):
        return bce_loss(vec[:3].reshape(3, 1), vec[3:].reshape(3, 1))[0]

    def grad(vec):
        grad = bce_loss(vec[:3].reshape(3, 1), vec[3:].reshape(3, 1))[1]
        assert grad.shape == (6, 1)
        return grad.ravel()

    x0 = np.concatenate([pp.ravel(), pn.ravel()])
    assert grad_check(f, grad, x0, eps=EPS) < GRAD_TOL


def test_combined_loss_composition():
    # the generator pass's aae objective is the weighted sum of its parts
    from xlingmap.models import build_models
    from xlingmap.training import TrainConfig, _joint_pass

    rng = np.random.default_rng(18)
    model = ModelConfig(dim=4, block_dim=3, depth=1, dropout_rate=0.0)
    enc, disc, _ = build_models(model, Rng(18))
    disc.output.value[...] = rng.normal(size=(3, 1))
    f_rows = rng.normal(size=(5, 4))
    e_rows = rng.normal(size=(5, 4))

    def losses(**weights):
        cfg = TrainConfig(model=model, **weights)
        return _joint_pass(cfg, enc, disc, f_rows, e_rows, None)[1]

    parts = losses()
    assert parts["loss_total"] == pytest.approx(
        parts["loss_recon"] + parts["loss_adv"] + parts["loss_cos"], rel=1e-12)
    weighted = losses(lambda_r=2.0, lambda_a=0.5, lambda_c=3.0)
    assert weighted["loss_total"] == pytest.approx(
        2.0 * parts["loss_recon"] + 0.5 * parts["loss_adv"] + 3.0 * parts["loss_cos"],
        rel=1e-12)
    # a term of weight 0 is not computed: it reads 0 and leaves the others as they are
    for weight, key in (("lambda_r", "loss_recon"), ("lambda_a", "loss_adv"),
                        ("lambda_c", "loss_cos")):
        skipped = losses(**{weight: 0.0})
        assert skipped[key] == 0.0
        assert skipped["loss_total"] == pytest.approx(parts["loss_total"] - parts[key],
                                                      rel=1e-12)
        assert all(skipped[k] == parts[k] for k in parts if k not in (key, "loss_total"))
    # an orthogonal encoder reconstructs exactly; a fresh output layer scores 0.5
    assert losses(lambda_a=0.0, lambda_c=0.0)["loss_total"] < 1e-15
    disc.output.value[...] = 0.0
    assert losses(lambda_r=0.0, lambda_c=0.0)["loss_total"] == pytest.approx(math.log(2))
