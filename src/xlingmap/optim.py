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
    """A named trainable array and the gradient the next optimizer step uses."""

    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value):
        self.name = name
        self.value = np.array(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)


class NonFiniteGradient(FloatingPointError):
    def __init__(self, param_name: str):
        super().__init__(f"non-finite gradient in parameter {param_name!r}")
        self.param_name = param_name


class Adam:
    """Standard Adam: m and v moment buffers, bias-corrected update.

    The step aborts before touching any parameter if a gradient contains a
    non-finite entry, so a failed step leaves the state untouched.
    """

    def __init__(self, params, lr: float):
        self.params = list(params)
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names in optimizer group")
        self.lr = float(lr)
        self.t = 0
        self.m = {p.name: np.zeros_like(p.value) for p in self.params}
        self.v = {p.name: np.zeros_like(p.value) for p in self.params}

    def step(self) -> None:
        for p in self.params:
            # the sum is non-finite iff some entry is
            if not np.isfinite(np.sum(p.grad)):
                raise NonFiniteGradient(p.name)
        self.t += 1
        bc1 = 1.0 - BETA1**self.t
        bc2 = 1.0 - BETA2**self.t
        scale = self.lr / bc1
        inv_sqrt_bc2 = 1.0 / math.sqrt(bc2)
        for p in self.params:
            g = p.grad
            m = self.m[p.name]
            v = self.v[p.name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            denom = np.sqrt(v)
            denom *= inv_sqrt_bc2
            denom += EPS
            update = m / denom
            update *= scale
            p.value -= update
