"""Seeded randomness plumbing.

Every stochastic entry point in the package takes an explicit integer seed
(or an already-built generator), and multi-trial experiments derive one child
seed per trial so that any single trial can be reproduced in isolation.
"""
from __future__ import annotations

import numpy as np

from .errors import InputError

__all__ = ["as_generator", "derive_seeds"]


def as_generator(seed: int | np.random.Generator) -> np.random.Generator:
    """Return a PCG64-backed generator for ``seed``, or pass one through.
    A negative seed is refused."""
    if isinstance(seed, np.random.Generator):
        return seed
    seed = int(seed)
    if seed < 0:
        raise InputError(f"seed must be nonnegative, got {seed}")
    return np.random.default_rng(seed)


def derive_seeds(seed: int | np.random.Generator, count: int) -> list[int]:
    """Deterministic list of ``count`` child seeds for per-trial streams."""
    rng = as_generator(seed)
    return [int(s) for s in rng.integers(0, 2**63 - 1, size=int(count))]
