"""Elementwise functions and losses of the discriminator and the
generator objective: leaky ReLU, logistic sigmoid, and the cosine /
adversarial / binary cross-entropy losses, each with its hand-derived
gradient.
"""
from __future__ import annotations

import numpy as np

# Probabilities are clamped this far from 0/1 before logs so losses stay
# finite for any input; far below float64 training relevance.
PROB_CLAMP = 1e-12


class LayerError(ValueError):
    pass


def leaky_relu(x, slope: float):
    """Elementwise x for x >= 0, slope * x otherwise, for 0 < slope < 1."""
    return np.maximum(x, slope * x)


def sigmoid(x):
    """Numerically stable logistic function; saturates cleanly at 0/1."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid_backward(grad_out, out):
    return grad_out * out * (1.0 - out)


def _row_norms(a, what: str):
    norms = np.linalg.norm(a, axis=1)
    if np.any(norms == 0.0):
        raise LayerError(f"zero row in {what}")
    return norms


def cosine_dissim_loss(a, b) -> float:
    """Mean over rows of (1 - cosine similarity), rows paired by index."""
    if a.shape != b.shape:
        raise LayerError(f"shape mismatch: {a.shape} vs {b.shape}")
    na = _row_norms(a, "first argument")
    nb = _row_norms(b, "second argument")
    cos = np.clip((a * b).sum(axis=1) / (na * nb), -1.0, 1.0)
    return float(np.mean(1.0 - cos))


def cosine_dissim_grads(a, b):
    """Gradients of :func:`cosine_dissim_loss` w.r.t. both arguments."""
    if a.shape != b.shape:
        raise LayerError(f"shape mismatch: {a.shape} vs {b.shape}")
    n = a.shape[0]
    na = _row_norms(a, "first argument")
    nb = _row_norms(b, "second argument")
    dot = (a * b).sum(axis=1)
    cos = dot / (na * nb)
    ga = -(b / (na * nb)[:, None] - (cos / na**2)[:, None] * a) / n
    gb = -(a / (na * nb)[:, None] - (cos / nb**2)[:, None] * b) / n
    return ga, gb


def adversarial_loss(p) -> float:
    """Mean of -log(p) over a column of probabilities, clamped below."""
    p = np.asarray(p, dtype=np.float64)
    return float(-np.log(np.maximum(p, PROB_CLAMP)).mean())


def adversarial_loss_grad(p):
    p = np.asarray(p, dtype=np.float64)
    pc = np.maximum(p, PROB_CLAMP)
    # Zero gradient where the clamp is active, matching the forward value.
    return np.where(p >= PROB_CLAMP, -1.0 / (p.size * pc), 0.0)


def bce_loss(p_pos, p_neg) -> float:
    """Binary cross-entropy over positives and negatives, mean over all rows."""
    p_pos = np.asarray(p_pos, dtype=np.float64)
    p_neg = np.asarray(p_neg, dtype=np.float64)
    total = p_pos.size + p_neg.size
    pp = np.clip(p_pos, PROB_CLAMP, 1.0 - PROB_CLAMP)
    pn = np.clip(p_neg, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return float(-(np.log(pp).sum() + np.log(1.0 - pn).sum()) / total)


def bce_loss_grads(p_pos, p_neg):
    """Gradients of :func:`bce_loss` w.r.t. both arguments; zero where the
    clamp is active, matching the forward value."""
    p_pos = np.asarray(p_pos, dtype=np.float64)
    p_neg = np.asarray(p_neg, dtype=np.float64)
    total = p_pos.size + p_neg.size
    pp = np.clip(p_pos, PROB_CLAMP, 1.0 - PROB_CLAMP)
    pn = np.clip(p_neg, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return (np.where(pp == p_pos, -1.0 / (total * pp), 0.0),
            np.where(pn == p_neg, 1.0 / (total * (1.0 - pn)), 0.0))
