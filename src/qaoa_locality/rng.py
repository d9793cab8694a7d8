"""Seeded randomness plumbing.

Every stochastic entry point in the package takes an explicit integer seed,
and multi-trial experiments derive one child seed per trial so that any
single trial can be reproduced in isolation.
"""
from __future__ import annotations

import numpy as np

from .errors import integer

__all__ = ["as_generator", "derive_seeds"]


def as_generator(seed: int) -> np.random.Generator:
    """Return a PCG64-backed generator for ``seed``, a nonnegative integer."""
    return np.random.default_rng(integer(seed, "seed", 0))


def derive_seeds(seed: int, count: int) -> list[int]:
    """Deterministic list of ``count`` child seeds for per-trial streams."""
    rng = as_generator(seed)
    return [int(s) for s in rng.integers(0, 2**63 - 1, size=integer(count, "seed count", 0))]
