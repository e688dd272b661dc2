"""The logistic sigmoid, the losses of the discriminator and the generator
objective (cosine, adversarial and binary cross-entropy), and the row norms
every cosine in the package divides by. Each loss is one function that
returns its value together with its hand-derived gradient, and checks nothing:
it takes the clamped discriminator output or batches ``Trainer`` has checked.
"""
from __future__ import annotations

import numpy as np

# Values per block of rows in ``_row_norms`` (8 MB of float64), whatever d is.
NORM_BLOCK = 1 << 20


def sigmoid(x):
    """Numerically stable logistic of a float64 array; saturates cleanly at 0/1."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def _row_norms(matrix):
    """``np.linalg.norm(matrix, axis=1)``, bitwise, from blocks of rows of at
    most ``NORM_BLOCK`` values (the whole squared matrix is never held); a
    norm beyond the floats is inf, with no overflow warning."""
    norms, step = np.empty(len(matrix)), max(1, NORM_BLOCK // max(1, matrix.shape[1]))
    with np.errstate(over="ignore"):
        for start in range(0, len(matrix), step):
            norms[start:start + step] = np.linalg.norm(matrix[start:start + step], axis=1)
    return norms


def cosine_dissim_loss(a, b):
    """Mean over rows of (1 - cosine similarity), rows paired by index, and
    its gradient w.r.t. ``b``: ``(loss, grad)``, for matrices of one shape. A
    zero row gives NaN, a numeric failure (``Trainer`` refuses zero table rows)."""
    na = _row_norms(a)
    nb = _row_norms(b)
    cos = (a * b).sum(axis=1) / (na * nb)
    loss = float(np.mean(1.0 - np.clip(cos, -1.0, 1.0)))
    grad = -(a / (na * nb)[:, None] - (cos / nb**2)[:, None] * b) / a.shape[0]
    return loss, grad


def adversarial_loss(p):
    """Mean of -log(p) over a column of probabilities, and its gradient:
    ``(loss, grad)``. ``p`` is the discriminator's output, clamped inside
    (0, 1) by its ``forward``, so both are finite."""
    return float(-np.log(p).mean()), -1.0 / (p.size * p)


def bce_loss(p_pos, p_neg):
    """Binary cross-entropy over positives and negatives, mean over all rows,
    and its gradient w.r.t. the stacked column ``[p_pos; p_neg]``:
    ``(loss, grad)``. Both columns are the discriminator's clamped output,
    as in :func:`adversarial_loss`."""
    total = p_pos.size + p_neg.size
    loss = float(-(np.log(p_pos).sum() + np.log(1.0 - p_neg).sum()) / total)
    return loss, np.concatenate([-1.0 / (total * p_pos), 1.0 / (total * (1.0 - p_neg))])
