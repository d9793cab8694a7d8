"""Shared exception types with machine-readable categories, the one integer
check every count, degree, depth, radius and seed goes through, and the one
0/1 check every bit and bipartition entry goes through."""

import numpy as np

__all__ = ["InputError", "ResourceError", "integer", "zero_one"]


class InputError(ValueError):
    """Rejected input: malformed graph, bad sizes, unknown names, missing data."""

    category = "invalid-input"


class ResourceError(RuntimeError):
    """A desk-scale guardrail was exceeded (qubit cap, evaluation budget,
    stub-matching budget)."""

    category = "resource-limit"


def integer(value, name: str, minimum: int, refusal: str | None = None) -> int:
    """``value`` as a Python ``int``: an ``int`` or numpy integer, not a
    bool, of at least ``minimum``. Any other type raises ``InputError``
    saying ``name`` must be an integer; a smaller value raises it with
    ``refusal``, by default saying ``name`` must be at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InputError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        bound = "nonnegative" if minimum == 0 else f"at least {minimum}"
        raise InputError(refusal or f"{name} must be {bound}, got {value}")
    return int(value)


def zero_one(values, name: str) -> list[int]:
    """``values`` as a list of Python ``int``s, each 0 or 1 and given as an
    ``int`` or numpy integer, not a bool. Anything else raises
    ``InputError`` saying ``name`` must be 0 or 1."""
    vals = list(values)
    if not {int}.issuperset(map(type, vals)):
        vals = [int(b) if isinstance(b, np.integer) else b for b in vals]
    if not ({int}.issuperset(map(type, vals)) and {0, 1}.issuperset(vals)):
        raise InputError(f"{name} must be 0 or 1")
    return vals
