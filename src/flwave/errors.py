"""Exception types shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, any other
FlwaveError -> 3, OSError -> 4.
"""
from __future__ import annotations


class FlwaveError(Exception):
    """Base class for all package errors."""


class ConfigError(FlwaveError, ValueError):
    """Invalid parameters, charts, grids, or incompatible combinations."""


class JetOrderError(FlwaveError):
    """Two jets of different truncation order were combined."""


class JetDomainError(FlwaveError):
    """Jet operation outside its domain: non-unit divisor, odd-leading or
    identically-zero square root input."""


class NumericError(FlwaveError):
    """Numeric breakdown that is not a configuration problem."""


class DegenerateSpectrumError(FlwaveError):
    """S(lambda) = 0 on a branch-splitting path: the spectral parameter sits
    on the degenerate locus and belongs to the rogue construction instead."""


class NotCriticalError(FlwaveError):
    """The rogue construction needs S(lambda) = 0; this lambda is not a root."""


class PoleError(NumericError):
    """A closed-form expression was evaluated at (or too near) a pole."""

    def __init__(self, message: str, at: complex | None = None):
        super().__init__(message)
        self.at = at


class SingularPointError(NumericError):
    """Omega_1 is singular or not finite at this point, or its refined solve
    did not converge; the sample is a gap, not a value."""


class OverflowRangeError(SingularPointError):
    """An exponential argument or an eigenfunction jet left the
    representable range: a gap like any other singular point."""


class StencilError(NumericError):
    """A finite-difference stencil touched a singular-flagged sample."""

    def __init__(self, message: str, offset: tuple[float, float, float] | None = None):
        super().__init__(message)
        self.offset = offset


class TruncationError(FlwaveError):
    """A jet was requested or consumed beyond its truncation order."""
