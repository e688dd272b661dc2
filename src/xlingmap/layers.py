"""The logistic sigmoid, the losses of the discriminator and the generator
objective (cosine, adversarial and binary cross-entropy), and the row norms
every cosine in the package divides by. Each loss is one function that
returns its value together with its hand-derived gradient.
"""
from __future__ import annotations

import numpy as np

# Probabilities are clamped this far from 0/1 before logs so losses stay
# finite for any input; far below float64 training relevance.
PROB_CLAMP = 1e-12
# Values per block of rows in ``_row_norms`` (8 MB of float64), whatever d is.
NORM_BLOCK = 1 << 20


class LayerError(ValueError):
    pass


def sigmoid(x):
    """Numerically stable logistic function; saturates cleanly at 0/1."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def _row_norms(matrix, tokens=None, where: str = "the table"):
    """``np.linalg.norm(matrix, axis=1)``, bitwise, from blocks of rows of at
    most ``NORM_BLOCK`` values (the whole squared matrix is never held); given
    the rows' ``tokens``, a zero row raises (:func:`_check_nonzero`)."""
    norms, step = np.empty(len(matrix)), max(1, NORM_BLOCK // max(1, matrix.shape[1]))
    for start in range(0, len(matrix), step):
        norms[start:start + step] = np.linalg.norm(matrix[start:start + step], axis=1)
    if tokens is not None:
        _check_nonzero(norms, tokens, where)
    return norms


def _check_nonzero(norms, tokens, where: str) -> None:
    """Raise :class:`LayerError` if a row of ``norms`` (the norms of the rows
    of ``tokens``) is zero, naming its token and ``where``."""
    if not norms.all():
        raise LayerError(f"zero row {tokens[int(np.argmin(norms != 0.0))]!r} in {where}")


def cosine_dissim_loss(a, b):
    """Mean over rows of (1 - cosine similarity), rows paired by index, and
    its gradient w.r.t. ``b``: ``(loss, grad)``."""
    if a.shape != b.shape:
        raise LayerError(f"shape mismatch: {a.shape} vs {b.shape}")
    na = _row_norms(a, range(len(a)), "the first argument")
    nb = _row_norms(b, range(len(b)), "the second argument")
    cos = (a * b).sum(axis=1) / (na * nb)
    loss = float(np.mean(1.0 - np.clip(cos, -1.0, 1.0)))
    grad = -(a / (na * nb)[:, None] - (cos / nb**2)[:, None] * b) / a.shape[0]
    return loss, grad


def adversarial_loss(p):
    """Mean of -log(p) over a column of probabilities, clamped below, and its
    gradient: ``(loss, grad)``. The gradient is zero where the clamp is
    active, matching the value."""
    p = np.asarray(p, dtype=np.float64)
    pc = np.maximum(p, PROB_CLAMP)
    grad = np.where(p >= PROB_CLAMP, -1.0 / (p.size * pc), 0.0)
    return float(-np.log(pc).mean()), grad


def bce_loss(p_pos, p_neg):
    """Binary cross-entropy over positives and negatives, mean over all rows,
    and its gradient w.r.t. the stacked column ``[p_pos; p_neg]``:
    ``(loss, grad)``. The gradient is zero where the clamp is active,
    matching the value."""
    p_pos = np.asarray(p_pos, dtype=np.float64)
    p_neg = np.asarray(p_neg, dtype=np.float64)
    total = p_pos.size + p_neg.size
    pp = np.clip(p_pos, PROB_CLAMP, 1.0 - PROB_CLAMP)
    pn = np.clip(p_neg, PROB_CLAMP, 1.0 - PROB_CLAMP)
    loss = float(-(np.log(pp).sum() + np.log(1.0 - pn).sum()) / total)
    grad = np.concatenate([np.where(pp == p_pos, -1.0 / (total * pp), 0.0),
                           np.where(pn == p_neg, 1.0 / (total * (1.0 - pn)), 0.0)])
    return loss, grad
