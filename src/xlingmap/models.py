"""Model assembly: the tied linear encoder/decoder pair and the residual
discriminator, with orthogonal initialization throughout.

Two discriminators with identical structure but independent initializations
are built per run: one trains against the generator, the other only observes
the same batches and serves as an over/underfitting monitor. The two share
one :class:`Workspace`: each runs its training-mode forward and backward in
turn, so one set of per-block buffers serves the run.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import sigmoid
from .numerics import Rng
from .optim import Param

# Batch-norm variance epsilon and running-statistics momentum.
BN_EPS = 1e-5
BN_MOMENTUM = 0.1
# The discriminator's output is clamped this far from 0/1, so the losses'
# logs stay finite for any input; far below float64 training relevance.
PROB_CLAMP = 1e-12


@dataclass(frozen=True)
class ModelConfig:
    dim: int
    block_dim: int = 40
    depth: int = 10
    leaky_slope: float = 0.01
    dropout_rate: float = 0.1

    def __post_init__(self):
        if self.dim < 1 or self.block_dim < 1 or self.depth < 1:
            raise ValueError("dim, block_dim and depth must be positive")
        if not 0.0 < self.leaky_slope < 1.0:
            raise ValueError(f"leaky slope {self.leaky_slope} outside (0, 1)")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout rate {self.dropout_rate} outside [0, 1)")


# The two experimental configurations shipped as presets.
PRESETS = {
    "en-it": {"dim": 100, "block_dim": 40, "depth": 10},
    "de-en": {"dim": 40, "block_dim": 40, "depth": 4},
}


def init_semi_orthogonal(rows: int, cols: int, rng: Rng) -> np.ndarray:
    """Random (rows x cols) matrix whose smaller side is orthonormal (QR
    with sign-fixed R); square, a uniformly random orthogonal matrix."""
    if rows >= cols:
        a = rng.normal(size=(rows, cols))
        q, r = np.linalg.qr(a)
        s = np.sign(np.diag(r))
        s[s == 0.0] = 1.0
        return q * s
    return init_semi_orthogonal(cols, rows, rng).T


class EncoderDecoder:
    """The generator: one stored weight W, the Param ``encoder.weight``, which
    training applies as the map f -> f @ W and its tied reverse z -> z @ W.T
    (outside training, the mapping is W alone)."""

    def __init__(self, weight):
        self.weight = Param("encoder.weight", weight)

    def params(self):
        return [self.weight]


class Workspace:
    """The per-block (n, k) buffer pairs that training-mode forwards write
    and the following backward reads, allocated once per batch size, and
    ``owner``, the discriminator whose training-mode forward wrote them last.

    Discriminators that share one workspace overwrite each other's
    activations, so each backward must follow its own forward.
    """

    __slots__ = ("buffers", "owner")

    def __init__(self):
        self.buffers = None
        self.owner = None


class Discriminator:
    """Input projection d->k, T residual blocks, and a sigmoid output layer.

    Block i computes ``h + dropout(leaky_relu(batchnorm(h @ W_i)))``: the
    passthrough path carries no nonlinearity and dropout applies to the
    transform branch only. The output layer starts at zero so a fresh
    discriminator scores every input exactly 0.5.

    Training mode normalizes with batch statistics (biased variance),
    updates the running statistics by exponential moving average and draws
    inverted-dropout masks; inference mode uses the running statistics and
    no dropout. ``forward`` keeps what ``backward`` needs from the last
    training-mode call in one slot, its activations in the buffers of
    ``workspace``: the run's, shared with the other discriminator by
    :func:`build_models`, or one of its own when none is given. A backward
    must follow this discriminator's own training-mode forward, with no
    other's on the workspace between them; inference-mode forwards do not
    touch it.
    """

    def __init__(self, name: str, cfg: ModelConfig, rng: Rng,
                 workspace: Workspace | None = None):
        k = cfg.block_dim
        self.name = name
        self.cfg = cfg
        self.input = Param(
            f"{name}.input.weight",
            init_semi_orthogonal(cfg.dim, k, rng.substream("input")),
        )
        self.blocks = [
            (
                Param(f"{name}.block{i}.weight",
                      init_semi_orthogonal(k, k, rng.substream(f"block{i}"))),
                Param(f"{name}.block{i}.bn.gamma", np.ones(k)),
                Param(f"{name}.block{i}.bn.beta", np.zeros(k)),
            )
            for i in range(cfg.depth)
        ]
        self.output = Param(f"{name}.output.weight", np.zeros((k, 1)))
        self.output_bias = Param(f"{name}.output.bias", np.zeros(1))
        self.running = [(np.zeros(k), np.ones(k)) for _ in range(cfg.depth)]
        self._cache = None
        self.workspace = Workspace() if workspace is None else workspace

    def forward(self, x, rng: Rng | None = None, training: bool = True):
        """Probability column for a batch; training mode takes an ``rng`` for
        the dropout masks, and a batch of n >= 2 rows (``TrainConfig``'s).

        Outputs are clamped to [``PROB_CLAMP``, 1 - ``PROB_CLAMP``], the one
        clamp the losses rely on. Besides keeping them finite, using the
        clamped value in the backward chain keeps the generator's gradient
        alive when the discriminator saturates: the exact sigmoid derivative
        underflows to zero there, while the clamped chain reproduces the
        analytic -(1 - p) logit gradient.
        """
        cfg = self.cfg
        m = BN_MOMENTUM
        rate = cfg.dropout_rate if training else 0.0
        # Inverted dropout's scale rides on the batch-norm affine map: the
        # leaky ReLU is positively homogeneous, so c * leaky(y) = leaky(c * y).
        scale = 1.0 / (1.0 - rate)
        steps = []
        ws = self.workspace
        if training:
            shape = (len(x), cfg.block_dim)
            if (ws.buffers is None or len(ws.buffers) != cfg.depth
                    or ws.buffers[0][0].shape != shape):
                # Cached arrays are allocated once per batch size: freed every
                # step, their pages go back to the system and fault in again.
                ws.buffers = [(np.empty(shape), np.empty(shape)) for _ in self.blocks]
            ws.owner = self
        work = ws.buffers if training else [(None, None)] * cfg.depth
        h = x @ self.input.value
        for (weight, gamma, beta), (running_mean, running_var), (z_out, a_out) in zip(
            self.blocks, self.running, work
        ):
            z = np.matmul(h, weight.value, out=z_out)
            if training:
                n = z.shape[0]
                mean = z.sum(axis=0) / n
                centered = z
                centered -= mean
                var = np.einsum("ij,ij->j", centered, centered) / n
                inv = 1.0 / np.sqrt(var + BN_EPS)
                running_mean *= 1.0 - m
                running_mean += m * mean
                running_var *= 1.0 - m
                running_var += m * var
            else:
                inv = 1.0 / np.sqrt(running_var + BN_EPS)
                centered = z - running_mean
            y = np.multiply(centered, gamma.value * (inv * scale), out=a_out)
            y += beta.value * scale
            # the sign pattern is all backward needs from the pre-activation
            positive = y >= 0.0 if training else None
            a = np.maximum(y, cfg.leaky_slope * y, out=y)
            kept = None
            if rate != 0.0:
                kept = rng.keep_mask(a.shape, rate)
                a *= kept
            if training:
                steps.append((h, centered, inv, positive, kept))
            h = np.add(a, h, out=a)
        p = sigmoid(h @ self.output.value + self.output_bias.value)
        np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP, out=p)
        if training:
            self._cache = (x, steps, h, p, scale)
        return p

    def backward(self, grad_p):
        """Backpropagate through the last training-mode forward.

        ``grad_p`` is one output gradient (n, 1), whose parameter gradients
        are written in place into each ``Param.grad``, or two stacked as
        (2, n, 1) that go through the blocks as one pass: channel 0 alone
        writes the parameter gradients and channel 1's input gradient is
        returned. A ``RuntimeError`` if another discriminator's
        training-mode forward has overwritten the shared buffers since.
        """
        x, steps, h, p, scale = self._cache
        self._cache = None
        owner = self.workspace.owner
        if owner is not self:
            raise RuntimeError(
                f"{self.name}'s backward follows {owner.name}'s training-mode "
                f"forward, which overwrote its activations in their shared workspace")
        g = np.reshape(grad_p, (-1,) + p.shape) * (p * (1.0 - p))
        np.matmul(h.T, g[0], out=self.output.grad)
        self.output_bias.grad[...] = g[0].sum(axis=0)
        g = g * self.output.value[:, 0]
        for (weight, gamma, beta), (h, centered, inv, positive, kept) in zip(
            reversed(self.blocks), reversed(steps)
        ):
            local = positive * (1.0 - self.cfg.leaky_slope)
            local += self.cfg.leaky_slope
            if kept is not None:
                local *= kept
            grad_out = g
            g = grad_out * local
            n = centered.shape[0]
            grad_sum = g.sum(axis=1)
            grad_dot_c = np.einsum("cij,ij->cj", g, centered)
            gamma.grad[...] = grad_dot_c[0] * (inv * scale)
            beta.grad[...] = grad_sum[0] * scale
            # batch norm's input gradient is u * s, u = g - mean(g) - centered *
            # mean(g * centered) * inv^2, s = gamma * inv * scale; s goes on W
            g -= grad_sum[:, None] / n
            g -= centered * (grad_dot_c * (inv * inv / n))[:, None]
            s = gamma.value * (inv * scale)
            np.matmul(h.T, g[0], out=weight.grad)
            weight.grad *= s
            g = g.reshape(-1, g.shape[-1]) @ (weight.value.T * s[:, None])
            g = g.reshape(grad_out.shape)
            g += grad_out
        np.matmul(x.T, g[0], out=self.input.grad)
        if len(g) == 2:
            return g[1] @ self.input.value.T

    def params(self):
        out = [self.input]
        for block in self.blocks:
            out.extend(block)
        out += [self.output, self.output_bias]
        return out


def build_models(cfg: ModelConfig, rng: Rng):
    """Encoder/decoder plus two independently initialized discriminators
    that share one :class:`Workspace`."""
    enc = EncoderDecoder(init_semi_orthogonal(cfg.dim, cfg.dim,
                                              rng.substream("encoder_init")))
    work = Workspace()
    d_train = Discriminator("disc_train", cfg, rng.substream("disc_train_init"), work)
    d_monitor = Discriminator("disc_monitor", cfg, rng.substream("disc_monitor_init"),
                              work)
    return enc, d_train, d_monitor
