"""A splittable deterministic RNG and a central finite-difference gradient
checker.

All randomness flows through named :class:`Rng` substreams so that runs are
reproducible bit-for-bit.
"""
from __future__ import annotations

import hashlib

import numpy as np

# Identifier stored in checkpoints; bump if the derivation scheme changes.
RNG_ALGORITHM = "pcg64/sha256-named-substreams/v1"


class NumericsError(ValueError):
    pass


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


def _derive_seed(seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{seed}\x1f{name}".encode("utf-8")).digest()
    return int.from_bytes(digest, "little")


class Rng:
    """Deterministic random stream, splittable into independent named substreams.

    A substream's state depends only on ``(seed, path)``, never on how much
    the parent has been consumed, so e.g. drawing dropout masks can never
    perturb the sampler stream.
    """

    def __init__(self, seed: int, name: str = "root"):
        self.seed = int(seed)
        self.name = name
        self._gen = np.random.Generator(
            np.random.PCG64(_derive_seed(self.seed, name))
        )

    def substream(self, name: str) -> "Rng":
        return Rng(self.seed, f"{self.name}/{name}")

    def uniform(self, size=None):
        """Uniform draws in [0, 1)."""
        return self._gen.random(size)

    def normal(self, size=None):
        """Standard normal draws."""
        return self._gen.standard_normal(size)

    def get_state(self) -> dict:
        return {
            "algorithm": RNG_ALGORITHM,
            "seed": self.seed,
            "name": self.name,
            "state": self._gen.bit_generator.state,
        }

    def set_state(self, state: dict) -> None:
        if state.get("algorithm") != RNG_ALGORITHM:
            raise NumericsError(
                f"rng algorithm mismatch: {state.get('algorithm')!r} "
                f"vs {RNG_ALGORITHM!r}"
            )
        self.seed = int(state["seed"])
        self.name = state["name"]
        self._gen.bit_generator.state = state["state"]
