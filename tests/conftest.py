import numpy as np
import pytest

from xlingmap.embed_io import EmbeddingTable, Vocabulary
from xlingmap.models import Discriminator, ModelConfig
from xlingmap.numerics import NumericsError, Rng


def grad_check(f, grad, x0, eps: float = 1e-5) -> float:
    """Compare an analytic gradient against central finite differences.

    ``f`` maps a flat parameter vector to a scalar; ``grad`` returns the
    analytic gradient at the same point. Returns the max over coordinates of
    ``|analytic - numeric| / max(1, |analytic|, |numeric|)``.
    """
    if not (1e-7 <= eps <= 1e-4):
        raise NumericsError(f"eps {eps} outside sane range [1e-7, 1e-4]")
    x0 = np.asarray(x0, dtype=np.float64).ravel()
    g = np.asarray(grad(x0.copy()), dtype=np.float64).ravel()
    if g.shape != x0.shape:
        raise NumericsError("analytic gradient has wrong length")
    worst = 0.0
    for i in range(x0.size):
        xp = x0.copy()
        xp[i] += eps
        xm = x0.copy()
        xm[i] -= eps
        num = (float(f(xp)) - float(f(xm))) / (2.0 * eps)
        if not np.isfinite(num) or not np.isfinite(g[i]):
            raise NumericsError(f"non-finite value at coordinate {i}")
        denom = max(1.0, abs(g[i]), abs(num))
        worst = max(worst, abs(g[i] - num) / denom)
    return worst


class FixedRng:
    """Rng stand-in that replays a fixed uniform field, for gradient checks
    that need a frozen dropout mask: ``keep_mask`` keeps the entries of the
    field at or above the rate."""

    def __init__(self, uniforms):
        self.uniforms = np.asarray(uniforms, dtype=np.float64)

    def uniform(self, size=None):
        if size is None:
            return float(self.uniforms.ravel()[0])
        out = np.broadcast_to(self.uniforms, size) if self.uniforms.shape != tuple(
            np.atleast_1d(size)
        ) else self.uniforms
        return np.reshape(out, size)

    def keep_mask(self, shape, rate):
        return self.uniform(shape) >= rate

    def normal(self, size=None):
        raise NotImplementedError("FixedRng only replays uniforms")


def cosine(u, v) -> float:
    """Brute-force cosine similarity of two vectors, the reference the
    vectorized retrieval and collapse statistics are checked against."""
    u = np.asarray(u, dtype=np.float64).ravel()
    v = np.asarray(v, dtype=np.float64).ravel()
    if u.shape != v.shape:
        raise ValueError(f"cosine length mismatch: {u.size} vs {v.size}")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ValueError("cosine undefined for zero-norm vector")
    return float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))


def random_table(n_words, dim, seed=0, prefix="w"):
    rng = np.random.default_rng(seed)
    vocab = Vocabulary([f"{prefix}{i}" for i in range(n_words)])
    return EmbeddingTable(vocab, rng.normal(size=(n_words, dim)))


def as_table(matrix):
    """A copy of the rows of ``matrix`` as a table of the tokens ``q0``,
    ``q1``, ...: the form ``knn`` takes its queries in."""
    matrix = np.array(matrix, dtype=np.float64)
    return EmbeddingTable(Vocabulary([f"q{i}" for i in range(len(matrix))]), matrix)


def probe(k, depth=1, **cfg):
    """A k-wide discriminator whose input projection is the identity, so the
    first block sees the input rows themselves."""
    disc = Discriminator("d", ModelConfig(dim=k, block_dim=k, depth=depth, **cfg),
                         Rng(0))
    disc.input.value[...] = np.eye(k)
    return disc


def final_state(disc, x, rng=None):
    """The training-mode hidden state that feeds the output layer, read back
    exactly: with the output layer at zero every score is 0.5, so an
    upstream gradient of 4 on row i alone makes the output weight's gradient
    row i of the state. ``rng`` must replay the same masks on every call."""
    assert not np.any(disc.output.value)
    rows = []
    for i in range(x.shape[0]):
        disc.forward(x, rng)
        grad_p = np.zeros((x.shape[0], 1))
        grad_p[i] = 4.0
        disc.backward(grad_p)
        rows.append(disc.output.grad[:, 0].copy())
    return np.array(rows)


def disc_grad_errors(disc, x, uniforms, readout, eps):
    """Finite-difference errors of a training-mode discriminator's input
    gradient and of every parameter's gradient, under the frozen dropout
    field ``uniforms``. The objective is ``sum(p * readout)``; returns
    ``{"input" or parameter name: relative error}``."""
    inp = np.array(x, dtype=np.float64)

    def loss(vec, arr):
        arr[...] = vec.reshape(arr.shape)
        return float(np.sum(disc.forward(inp, FixedRng(uniforms)) * readout))

    def grad(vec, arr, param):
        arr[...] = vec.reshape(arr.shape)
        disc.forward(inp, FixedRng(uniforms))
        if param is None:
            return disc.backward(np.stack([readout, readout])).ravel()
        disc.backward(readout)
        return param.grad.ravel().copy()

    errors = {}
    targets = [("input", inp, None)] + [(p.name, p.value, p) for p in disc.params()]
    for name, arr, param in targets:
        start = arr.ravel().copy()
        errors[name] = grad_check(lambda v: loss(v, arr),
                                  lambda v: grad(v, arr, param), start, eps=eps)
        arr[...] = start.reshape(arr.shape)
    return errors


@pytest.fixture
def tiny_tables():
    return random_table(30, 6, seed=1, prefix="s"), random_table(30, 6, seed=2, prefix="t")
