"""Trainable parameters and the Adam optimizer with bias correction, one
instance per parameter group."""
from __future__ import annotations

import math

import numpy as np

# Adam's moment decay rates and denominator epsilon.
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Param:
    """A named trainable array and the gradient the next optimizer step uses,
    written in place: in an optimizer group both are views of its buffers."""

    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value):
        self.name = name
        self.value = np.array(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)


class NumericFailure(FloatingPointError):
    """Training made a number that is not finite: a gradient or a record value."""


class Adam:
    """Standard Adam: m and v moment buffers, bias-corrected update.

    The group's values, gradients and moments each live in one flat buffer,
    so a step is a few whole-buffer operations; ``m`` and ``v`` map each
    parameter name to its view of the moment buffers. The step aborts
    before touching any parameter if a gradient's square has a non-finite
    entry (a non-finite gradient, or one whose square overflows), so a
    failed step leaves the state untouched.
    """

    def __init__(self, params, lr: float):
        self.params = list(params)
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names in optimizer group")
        self.lr = float(lr)
        self.t = 0
        self.value = np.concatenate([p.value.ravel() for p in self.params])
        self.grad = np.concatenate([p.grad.ravel() for p in self.params])
        self.m_flat, self.v_flat = np.zeros_like(self.value), np.zeros_like(self.value)
        self.m, self.v = {}, {}
        offset = 0
        for p in self.params:
            part, shape = slice(offset, offset + p.value.size), p.value.shape
            p.value, p.grad, self.m[p.name], self.v[p.name] = (
                buf[part].reshape(shape)
                for buf in (self.value, self.grad, self.m_flat, self.v_flat))
            offset = part.stop

    def step(self) -> None:
        g, m, v = self.grad, self.m_flat, self.v_flat
        # a finite entry above about 1.34e154 still overflows its square,
        # which would pin its second moment at inf and its update at 0
        with np.errstate(over="ignore"):
            g2 = g * g
            if not np.isfinite(g2).all():
                name = next(p.name for p in self.params
                            if not np.isfinite(p.grad * p.grad).all())
                raise NumericFailure(f"non-finite gradient in parameter {name!r}")
        self.t += 1
        bc1 = 1.0 - BETA1**self.t
        bc2 = 1.0 - BETA2**self.t
        scale = self.lr / bc1
        inv_sqrt_bc2 = 1.0 / math.sqrt(bc2)
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g2
        denom = np.sqrt(v)
        denom *= inv_sqrt_bc2
        denom += EPS
        update = m / denom
        update *= scale
        self.value -= update
