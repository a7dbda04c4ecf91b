"""Exception types shared across the package, the finiteness checks and the
one reduction of residuals."""

import math

import numpy as np


class DomainError(ValueError):
    """A parameter lies outside the admissible range (degenerate modulus, bad order, ...)."""


class PoleError(ZeroDivisionError):
    """Evaluation requested at or too close to a pole of the underlying function."""


class ThetaOverflowError(OverflowError):
    """Theta-series argument outside the band where double precision can hold the result."""


class DegenerateFrameError(ValueError):
    """Frame construction impossible (zero-length edge or antiparallel tangents)."""


class ValidationError(ValueError):
    """A constructed object violates its structural invariants.

    Carries a ``report`` dict mapping invariant names to the measured residual.
    """

    def __init__(self, message: str, report: dict | None = None):
        super().__init__(message)
        self.report = report or {}


def check_finite(**values: float) -> None:
    """Reject a NaN or infinite value of any named parameter with DomainError."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")


def finite_or_none(value: float) -> float | None:
    """value, or None (JSON null) for a NaN or infinity: reports are strict JSON."""
    return value if math.isfinite(value) else None


def max_abs(residuals) -> float:
    """max |r| over an array or sequence of residuals; NaN if any r is NaN, 0.0 if empty."""
    return float(np.abs(residuals).max(initial=0.0))
