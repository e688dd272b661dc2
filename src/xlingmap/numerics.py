"""A splittable deterministic RNG.

All randomness flows through named :class:`Rng` substreams so that runs are
reproducible bit-for-bit.
"""
from __future__ import annotations

import hashlib
import math

import numpy as np

# Identifier stored in checkpoints; bump if the derivation scheme changes.
RNG_ALGORITHM = "pcg64/sha256-named-substreams/v1"


class NumericsError(ValueError):
    pass


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

    def keep_mask(self, shape, rate: float):
        """Boolean dropout mask, True where kept: raw 64-bit output read as
        little-endian 16-bit integers, kept where >= ``ceil(rate * 2**16)``,
        so the keep probability is within 2**-16 of ``1 - rate``."""
        size = math.prod(shape)
        raw = self._gen.bit_generator.random_raw(-(-size // 4))
        bits = raw.astype("<u8", copy=False).view("<u2")[:size]
        return (bits >= math.ceil(rate * 65536)).reshape(shape)

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
