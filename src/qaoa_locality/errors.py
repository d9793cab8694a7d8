"""Shared exception types with machine-readable categories."""

__all__ = ["InputError", "ResourceError"]


class InputError(ValueError):
    """Rejected input: malformed graph, bad sizes, unknown names, missing data."""

    category = "invalid-input"


class ResourceError(RuntimeError):
    """A desk-scale guardrail was exceeded (qubit cap, evaluation budget,
    stub-matching budget)."""

    category = "resource-limit"
