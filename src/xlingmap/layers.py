"""The logistic sigmoid and the losses of the discriminator and the
generator objective: cosine, adversarial and binary cross-entropy. Each
loss is one function that returns its value together with its
hand-derived gradient.
"""
from __future__ import annotations

import numpy as np

# Probabilities are clamped this far from 0/1 before logs so losses stay
# finite for any input; far below float64 training relevance.
PROB_CLAMP = 1e-12


class LayerError(ValueError):
    pass


def sigmoid(x):
    """Numerically stable logistic function; saturates cleanly at 0/1."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def _row_norms(a, what: str):
    norms = np.linalg.norm(a, axis=1)
    if np.any(norms == 0.0):
        raise LayerError(f"zero row in {what}")
    return norms


def cosine_dissim_loss(a, b):
    """Mean over rows of (1 - cosine similarity), rows paired by index, and
    its gradient w.r.t. ``b``: ``(loss, grad)``."""
    if a.shape != b.shape:
        raise LayerError(f"shape mismatch: {a.shape} vs {b.shape}")
    na = _row_norms(a, "first argument")
    nb = _row_norms(b, "second argument")
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
