"""Exception types shared across the toolkit, and the finite-number check."""

import math
from numbers import Real


class TimebinError(Exception):
    """Base class for all toolkit errors."""


class DomainError(TimebinError, ValueError):
    """An argument violates a documented precondition."""


class NoEntropyError(DomainError):
    """A block with k = 0 or k = N carries no positional information.

    Callers encoding streams should discard such blocks rather than
    treat this as a failure.
    """


class UnsupportedCaseError(DomainError):
    """The requested case is outside the implemented model."""


class StreamFormatError(TimebinError, ValueError):
    """A stream or bit file could not be parsed.

    Carries the byte offset of the first offending byte in ``offset``.
    """

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


def check_finite(name: str, value) -> None:
    """Raise DomainError unless ``value`` is a finite real number (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, Real) or not math.isfinite(value):
        raise DomainError(f"{name} must be a finite number, got {value!r}")
