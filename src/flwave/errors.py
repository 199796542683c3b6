"""Exception types, one per outcome a caller acts on.

The CLI maps these onto exit codes: ConfigError -> 2, any other
FlwaveError -> 3, OSError -> 4.  A grid masks a node whose sample raises
SingularPointError, and peak_search skips it.
"""
from __future__ import annotations


class FlwaveError(Exception):
    """Base class for all package errors."""


class ConfigError(FlwaveError, ValueError):
    """Bad input: parameters, charts, jets or grids that break a rule."""


class NumericError(FlwaveError):
    """A numeric failure that is neither bad input nor a gap."""


class SingularPointError(NumericError):
    """The sample is a gap, not a value: Omega_1 is singular or not finite,
    its refined solve did not converge, or the eigenfunction jets left the
    representable range."""
