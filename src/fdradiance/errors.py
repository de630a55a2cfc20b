"""Exception types shared across the package."""
from __future__ import annotations

__all__ = [
    "FdradianceError",
    "DomainError",
    "PoleError",
    "ConstraintError",
    "RegimeError",
    "NonFiniteError",
    "OverflowRangeError",
    "ConvergenceError",
]


class FdradianceError(Exception):
    """Base class for all package errors."""


class DomainError(FdradianceError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class PoleError(DomainError):
    """The requested point sits on a pole of the function."""


class ConstraintError(DomainError):
    """Inputs violate a structural constraint (e.g. an inconsistent mode pair)."""


class RegimeError(DomainError):
    """Inputs are outside the validity regime of an asymptotic formula."""


class NonFiniteError(FdradianceError, ValueError):
    """An integrand or result produced NaN/Inf where a finite value is required."""


class OverflowRangeError(FdradianceError, OverflowError):
    """A result exceeds the representable floating-point range."""


class ConvergenceError(FdradianceError, RuntimeError):
    """An iterative computation exhausted its budget before reaching tolerance.

    The best available estimate, when one exists, is attached as ``best``.
    An elementwise computation may also attach ``failed``, a boolean mask
    shaped like ``best`` that marks the elements it refused; the unmarked
    elements of ``best`` are then as good as a successful call's. It is
    None where the refusal is not per element.
    """

    def __init__(self, message: str, best=None, failed=None):
        super().__init__(message)
        self.best = best
        self.failed = failed
