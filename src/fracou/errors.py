"""Exception types shared across the package, and the count check that
raises one."""

import math
import numbers


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class AccuracyError(RuntimeError):
    """No evaluation path could certify the requested accuracy.

    Raised instead of silently returning an unreliable value. The optional
    ``est_abs_error`` attribute carries the best error estimate achieved.
    """

    def __init__(self, message, est_abs_error=None):
        super().__init__(message)
        self.est_abs_error = est_abs_error


class TruncationError(RuntimeError):
    """A requested history-truncation tolerance is unachievable within limits."""


def _count(name: str, value) -> int:
    """value as an int, once it is a whole number >= 1."""
    if not (isinstance(value, numbers.Real) and math.isfinite(value)
            and value == int(value) >= 1):
        raise DomainError(f"{name} must be a positive integer, got {value!r}")
    return int(value)
