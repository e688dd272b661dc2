import numpy as np
import pytest

from xlingmap import models
from xlingmap.models import (
    Discriminator,
    EncoderDecoder,
    ModelConfig,
    PRESETS,
    build_models,
    init_semi_orthogonal,
)
from xlingmap.numerics import Rng

from conftest import FixedRng, disc_grad_errors, grad_check


def det_via_lu(a):
    """Determinant by straightforward LU elimination with partial pivoting."""
    a = np.array(a, dtype=np.float64)
    n = a.shape[0]
    det = 1.0
    for col in range(n):
        piv = col + int(np.argmax(np.abs(a[col:, col])))
        if piv != col:
            a[[col, piv]] = a[[piv, col]]
            det = -det
        det *= a[col, col]
        if a[col, col] == 0.0:
            return 0.0
        for r in range(col + 1, n):
            a[r, col:] -= (a[r, col] / a[col, col]) * a[col, col:]
    return det


def test_init_orthogonal_d1():
    for seed in range(10):
        w = init_semi_orthogonal(1, 1, Rng(seed))
        assert w.shape == (1, 1)
        assert abs(abs(w[0, 0]) - 1.0) < 1e-12


def test_init_orthogonal_property():
    for seed in range(5):
        w = init_semi_orthogonal(100, 100, Rng(seed))
        assert np.max(np.abs(w.T @ w - np.eye(100))) < 1e-10


def test_init_orthogonal_determinant():
    for seed in range(5):
        w = init_semi_orthogonal(6, 6, Rng(seed))
        assert abs(abs(det_via_lu(w)) - 1.0) < 1e-8


def test_init_semi_orthogonal_both_orientations():
    tall = init_semi_orthogonal(100, 40, Rng(0))
    assert np.max(np.abs(tall.T @ tall - np.eye(40))) < 1e-10
    wide = init_semi_orthogonal(16, 40, Rng(1))
    assert np.max(np.abs(wide @ wide.T - np.eye(16))) < 1e-10


def test_model_config_presets():
    assert PRESETS["en-it"] == {"dim": 100, "block_dim": 40, "depth": 10}
    assert PRESETS["de-en"] == {"dim": 40, "block_dim": 40, "depth": 4}
    cfg = ModelConfig(**PRESETS["de-en"])
    assert (cfg.dim, cfg.block_dim, cfg.depth) == (40, 40, 4)


def test_model_config_validation():
    for bad in (dict(leaky_slope=0.0), dict(leaky_slope=1.0),
                dict(dropout_rate=-0.1), dict(dropout_rate=1.0), dict(depth=0)):
        with pytest.raises(ValueError):
            ModelConfig(dim=4, **bad)
    ModelConfig(dim=4, leaky_slope=0.99, dropout_rate=0.0)


def test_encode_identity_weight():
    enc = EncoderDecoder(np.eye(5))
    f = np.random.default_rng(0).normal(size=(4, 5))
    assert np.array_equal(enc.encode(f), f)
    assert np.array_equal(enc.decode(f), f)
    assert np.array_equal(enc.decode(np.zeros((3, 5))), np.zeros((3, 5)))


def test_encode_orthogonal_preserves_norms():
    enc = EncoderDecoder(init_semi_orthogonal(8, 8, Rng(2)))
    f = np.random.default_rng(1).normal(size=(6, 8))
    z = enc.encode(f)
    assert np.max(np.abs(np.linalg.norm(z, axis=1) - np.linalg.norm(f, axis=1))) < 1e-10
    back = enc.decode(z)
    assert np.max(np.abs(back - f)) < 1e-10


def test_tied_cosine_loss_grad_check():
    # reconstruction plus the latent cosine penalty, discriminator weight 0:
    # the generator pass's weight gradient against finite differences
    from xlingmap.training import TrainConfig, _joint_pass

    rng = np.random.default_rng(3)
    model = ModelConfig(dim=5, block_dim=3, depth=1, dropout_rate=0.0)
    cfg = TrainConfig(model=model, lambda_a=0.0)
    enc, disc, _ = build_models(model, Rng(3))
    f = rng.normal(size=(4, 5))
    e = rng.normal(size=(4, 5))
    w0 = rng.normal(size=(5, 5)) + 0.5 * np.eye(5)

    def run(vec):
        enc.weight.value[...] = vec.reshape(5, 5)
        return _joint_pass(cfg, enc, disc, f, e, None)

    assert grad_check(lambda v: run(v)[1]["loss_total"],
                      lambda v: run(v)[3].ravel(), w0.ravel(), eps=1e-5) < 1e-4


def reference_forward(disc, x, uniforms=None, training=True):
    """The discriminator's forward pass restated plainly: input projection,
    blocks h + dropout(leaky_relu(batchnorm(h @ W))), clamped sigmoid."""
    cfg = disc.cfg
    h = x @ disc.input.value
    for (w, gamma, beta), (run_mean, run_var) in zip(disc.blocks, disc.running):
        z = h @ w.value
        mean, var = (z.mean(axis=0), z.var(axis=0)) if training else (run_mean, run_var)
        z = gamma.value * (z - mean) / np.sqrt(var + models.BN_EPS) + beta.value
        a = np.where(z >= 0.0, z, cfg.leaky_slope * z)
        if training:
            a = a * (uniforms >= cfg.dropout_rate) / (1.0 - cfg.dropout_rate)
        h = h + a
    logit = h @ disc.output.value + disc.output_bias.value
    return np.clip(1.0 / (1.0 + np.exp(-logit)), 1e-12, 1.0 - 1e-12)


def test_discriminator_matches_reference(monkeypatch):
    monkeypatch.setattr(models, "BN_MOMENTUM", 0.2)
    cfg = ModelConfig(dim=6, block_dim=5, depth=3, leaky_slope=0.2,
                      dropout_rate=0.3)
    disc = Discriminator("d", cfg, Rng(20))
    rng = np.random.default_rng(20)
    disc.output.value[...] = rng.normal(size=(5, 1))
    disc.output_bias.value[...] = 0.3
    for _, gamma, beta in disc.blocks:
        gamma.value[...] = rng.uniform(0.5, 1.5, size=5)
        beta.value[...] = rng.normal(size=5) * 0.3
    x = rng.normal(size=(9, 6))
    uniforms = rng.uniform(size=(9, 5))

    expected = reference_forward(disc, x, uniforms)
    assert np.max(np.abs(disc.forward(x, FixedRng(uniforms)) - expected)) < 1e-12

    # after one training pass from (0, 1) the running statistics moved by
    # the momentum towards block 0's batch statistics
    z0 = x @ disc.input.value @ disc.blocks[0][0].value
    run_mean, run_var = disc.running[0]
    assert np.max(np.abs(run_mean - 0.2 * z0.mean(axis=0))) < 1e-12
    assert np.max(np.abs(run_var - (0.8 + 0.2 * z0.var(axis=0)))) < 1e-12

    expected = reference_forward(disc, x, training=False)
    assert np.max(np.abs(disc.forward(x, training=False) - expected)) < 1e-12


def test_discriminator_grad_check_every_group():
    cfg = ModelConfig(dim=4, block_dim=3, depth=2, dropout_rate=0.3)
    disc = Discriminator("d", cfg, Rng(21))
    rng = np.random.default_rng(21)
    disc.output.value[...] = rng.normal(size=(3, 1))
    errors = disc_grad_errors(disc, rng.normal(size=(5, 4)), rng.uniform(size=(5, 3)),
                              rng.normal(size=(5, 1)), 1e-5)
    assert set(errors) == {"input"} | {p.name for p in disc.params()}
    assert max(errors.values()) < 1e-4


def _fused_setup(seed):
    """A live discriminator and a ``backward(grad_p)`` that first repeats
    one training forward under a frozen dropout mask, so every call reads
    the same cache; plus two output gradients."""
    cfg = ModelConfig(dim=4, block_dim=3, depth=2, dropout_rate=0.3)
    disc = Discriminator("d", cfg, Rng(seed))
    rng = np.random.default_rng(seed)
    disc.output.value[...] = rng.normal(size=(3, 1))
    for _, gamma, beta in disc.blocks:
        gamma.value[...] = rng.uniform(0.5, 1.5, size=3)
        beta.value[...] = rng.normal(size=3) * 0.3
    x = rng.normal(size=(6, 4))
    mask = FixedRng(rng.uniform(size=(6, 3)))

    def backward(grad_p):
        disc.forward(x, mask)
        return disc.backward(grad_p)

    return disc, backward, rng.normal(size=(6, 1)), rng.normal(size=(6, 1))


def _grads(disc):
    return [p.grad.copy() for p in disc.params()]


def test_discriminator_backward_without_param_grads():
    # in a stacked backward the second channel writes no parameter gradient
    # and the first one gives no part of the returned input gradient; one
    # channel alone writes the parameter gradients and returns nothing
    disc, backward, grad_a, grad_b = _fused_setup(22)
    before = _grads(disc)
    assert backward(grad_a) is None
    written = _grads(disc)
    assert not any(np.array_equal(g, b) for g, b in zip(written, before))
    g_in = backward(np.stack([grad_a, grad_b]))
    assert g_in.shape == (6, 4)
    assert all(np.array_equal(p.grad, g) for p, g in zip(disc.params(), written))
    assert np.max(np.abs(backward(np.stack([-grad_b, grad_b])) - g_in)) < 1e-12
    assert not np.allclose(backward(np.stack([grad_a, 3.0 * grad_a])), g_in)


def test_fused_backward_matches_two_single_channel_backwards():
    # the generator's channel alone is the stack with a zero first channel
    for seed in range(3):
        disc, backward, grad_bce, grad_gen = _fused_setup(30 + seed)
        g_gen_alone = backward(np.stack([np.zeros_like(grad_gen), grad_gen]))
        backward(grad_bce)
        params_alone = _grads(disc)
        g_fused = backward(np.stack([grad_bce, grad_gen]))
        assert np.max(np.abs(g_fused - g_gen_alone)) < 1e-12
        for p, alone in zip(disc.params(), params_alone):
            assert np.max(np.abs(p.grad - alone)) < 1e-12, p.name


def test_discriminator_zero_output_layer_gives_half():
    cfg = ModelConfig(dim=6, block_dim=5, depth=3)
    disc = Discriminator("d", cfg, Rng(4))
    x = np.random.default_rng(2).normal(size=(8, 6))
    p = disc.forward(x, Rng(5).substream("drop"))
    assert np.array_equal(p, np.full((8, 1), 0.5))


def test_discriminator_outputs_valid_for_huge_inputs():
    cfg = ModelConfig(dim=4, block_dim=4, depth=2, dropout_rate=0.0)
    disc = Discriminator("d", cfg, Rng(6))
    x = np.random.default_rng(4).normal(size=(8, 4)) * 1e3
    # as built (zero output layer) huge inputs still score exactly 0.5
    p = disc.forward(x, Rng(7))
    assert np.all((p > 0.0) & (p < 1.0))
    # with a live output layer the passthrough path carries the full input
    # magnitude; sigmoid must saturate cleanly instead of producing NaN
    disc.output.value[...] = np.random.default_rng(3).normal(size=(4, 1))
    p = disc.forward(x, Rng(8))
    assert np.all(np.isfinite(p))
    assert np.all((p >= 0.0) & (p <= 1.0))


def test_discriminator_inference_deterministic():
    cfg = ModelConfig(dim=4, block_dim=4, depth=2, dropout_rate=0.5)
    disc = Discriminator("d", cfg, Rng(8))
    disc.forward(np.random.default_rng(5).normal(size=(16, 4)),
                 Rng(9).substream("d"))
    x = np.random.default_rng(6).normal(size=(5, 4))
    assert np.array_equal(disc.forward(x, training=False),
                          disc.forward(x, training=False))


def test_build_models_contract():
    cfg = ModelConfig(dim=7, block_dim=5, depth=3)
    enc, d1, d2 = build_models(cfg, Rng(12))
    # encoder orthogonal
    w = enc.weight.value
    assert np.max(np.abs(w.T @ w - np.eye(7))) < 1e-10
    # block weights orthogonal
    for d in (d1, d2):
        for weight, _, _ in d.blocks:
            bw = weight.value
            assert np.max(np.abs(bw.T @ bw - np.eye(5))) < 1e-10
    # the two discriminators differ
    assert not np.array_equal(d1.blocks[0][0].value, d2.blocks[0][0].value)
    # zero output layers
    x = np.random.default_rng(7).normal(size=(4, 7))
    assert np.all(d1.forward(x, Rng(13)) == 0.5)
    assert np.all(d2.forward(x, Rng(14)) == 0.5)


def test_build_models_deterministic():
    cfg = ModelConfig(dim=5, block_dim=4, depth=2)
    enc_a, d1_a, _ = build_models(cfg, Rng(99))
    enc_b, d1_b, _ = build_models(cfg, Rng(99))
    assert np.array_equal(enc_a.weight.value, enc_b.weight.value)
    for pa, pb in zip(d1_a.params(), d1_b.params()):
        assert pa.name == pb.name
        assert np.array_equal(pa.value, pb.value)


def test_param_names_unique():
    cfg = ModelConfig(dim=5, block_dim=4, depth=3)
    enc, d1, d2 = build_models(cfg, Rng(15))
    names = [p.name for p in enc.params() + d1.params() + d2.params()]
    assert len(names) == len(set(names))
