"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "SchedError",
    "InstanceError",
    "InfeasibleInstanceError",
    "InfeasibleAssignmentError",
    "SizeLimitError",
]


class SchedError(Exception):
    """Base class for all errors raised by this package."""


class InstanceError(SchedError, ValueError):
    """Malformed or invalid problem instance (parsing or validation)."""


class InfeasibleInstanceError(SchedError):
    """No dual constraint can ever become tight: the cost functions forbid
    every completion assignment that would cover the remaining demand."""


class InfeasibleAssignmentError(SchedError):
    """A due-date assignment cannot be met by any schedule."""

    def __init__(self, time: int, message: str | None = None):
        self.time = time
        super().__init__(message or f"assignment infeasible: demand at time {time} uncovered")


class SizeLimitError(SchedError, ValueError):
    """Instance exceeds the enforced size limit of an exact oracle."""
