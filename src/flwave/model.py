"""Seed backgrounds, deformation profiles, dispersion relations, and grids.

Everything here is plain parameterization: immutable value types plus the
algebra tying the plane-wave frequencies (c1, c2) to the other seed
parameters.  The frequencies are always derived, never user-set, so a
stored seed cannot violate the dispersion relations.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .numerics import polar


def dispersion_relation(a1: float, a2: float, b1: float, b2: float,
                        d1: float, d2: float) -> tuple[float, float]:
    """Frequencies (c1, c2) that make the plane-wave pair an exact solution."""
    if a1 == 0:
        raise ConfigError("a1 must be nonzero (dispersion relation divides by it)")
    if a2 == 0:
        raise ConfigError("a2 must be nonzero (dispersion relation divides by it)")
    for name, d in (("d1", d1), ("d2", d2)):
        if math.isinf(d * d):  # d ** 2 below would raise OverflowError
            raise ConfigError(f"seed {name} = {d!r}: its square overflows")
    c1 = (2 * a1 * d1 ** 2 + a1 * d2 ** 2 + a2 * d2 ** 2
          + 2 * a1 * b1 + 4 * a1 + 2) / (2 * a1)
    c2 = (a1 * d1 ** 2 + a2 * d1 ** 2 + 2 * a2 * d2 ** 2
          + 2 * a2 * b2 + 4 * a2 + 2) / (2 * a2)
    return c1, c2


@dataclass(frozen=True)
class PlaneWaveSeed:
    """Plane-wave background q_j = d_j exp(i(a_j x + b_j y + c_j t)).

    c1, c2 are computed in __post_init__ and cannot be supplied.
    """

    a1: float
    a2: float
    b1: float
    b2: float
    d1: float
    d2: float
    c1: float = field(init=False)
    c2: float = field(init=False)

    def __post_init__(self):
        for name in _SEED_KEYS:
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"seed {name} must be finite, "
                                  f"got {getattr(self, name)!r}")
        if self.d1 < 0 or self.d2 < 0:
            raise ConfigError("background amplitudes d1, d2 must be >= 0")
        c1, c2 = dispersion_relation(self.a1, self.a2, self.b1, self.b2,
                                     self.d1, self.d2)
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "c2", c2)

    @property
    def symmetric(self) -> bool:
        """Whether the diagonalized spectral frame applies (a1=a2, d1=d2)."""
        return self.a1 == self.a2 and self.d1 == self.d2

    def theta(self, x: float, y: float, t: float) -> tuple[float, float]:
        th1 = self.a1 * x + self.b1 * y + self.c1 * t
        th2 = self.a2 * x + self.b2 * y + self.c2 * t
        return th1, th2


@dataclass(frozen=True)
class ZeroBackground:
    """The trivial seed q1 = q2 = 0."""


SeedBackground = ZeroBackground | PlaneWaveSeed


def plane_wave_field(seed: PlaneWaveSeed, point) -> tuple[complex, complex]:
    """The seed at one point, or at many when x, y, t are arrays."""
    x, y, t = point
    th1, th2 = seed.theta(x, y, t)
    return polar(seed.d1, th1), polar(seed.d2, th2)


def background_field(background: SeedBackground, point) -> tuple[complex, complex]:
    if isinstance(background, ZeroBackground):
        return 0j, 0j
    return plane_wave_field(background, point)


class DeformationProfile(enum.Enum):
    """The steering function f applied to s = y + t."""

    LINEAR = "linear"
    QUADRATIC = "quadratic"
    CUBIC = "cubic"
    SINE = "sine"

    @classmethod
    def from_name(cls, name: str) -> "DeformationProfile":
        try:
            return cls(name)
        except ValueError:
            choices = ", ".join(p.value for p in cls)
            raise ConfigError(
                f"unknown profile {name!r} (choices: {choices})") from None


def profile_eval(p: DeformationProfile, s):
    """f(s) for a float or an array of s."""
    if p is DeformationProfile.LINEAR:
        return s
    if p is DeformationProfile.QUADRATIC:
        return s * s
    if p is DeformationProfile.CUBIC:
        return s * s * s
    return np.sin(s)


@dataclass(frozen=True)
class GridSpec:
    x_min: float
    x_max: float
    y_min: float
    y_max: float
    nx: int
    ny: int
    t: float = 0.0

    def __post_init__(self):
        for name in ("x_min", "x_max", "y_min", "y_max", "t"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"grid {name} must be finite, "
                                  f"got {getattr(self, name)!r}")
        for axis in ("x", "y"):
            lo, hi = getattr(self, f"{axis}_min"), getattr(self, f"{axis}_max")
            if not (lo < hi and math.isfinite(hi - lo)):
                raise ConfigError(f"grid needs {axis}_min < {axis}_max and a "
                                  f"finite span {axis}_max - {axis}_min")
        for name in ("nx", "ny"):
            n = getattr(self, name)
            if not (n >= 2 and math.isfinite(n) and n == int(n)):
                raise ConfigError(f"grid {name} must be a whole number "
                                  f">= 2, got {n!r}")
            object.__setattr__(self, name, int(n))

    def xs(self) -> list[float]:
        step = (self.x_max - self.x_min) / (self.nx - 1)
        return [self.x_min + i * step for i in range(self.nx)]

    def ys(self) -> list[float]:
        step = (self.y_max - self.y_min) / (self.ny - 1)
        return [self.y_min + j * step for j in range(self.ny)]


# -- JSON readers of the run spec (schema at dt_engine.spec_from_json) -------

_SEED_KEYS = ("a1", "a2", "b1", "b2", "d1", "d2")


def _number(value, field: str) -> float:
    """A JSON number as a float: bools and strings are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{field} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer literal past the double range
        raise ConfigError(f"{field} must be finite") from None


def seed_from_json(obj) -> SeedBackground:
    if obj == "zero":
        return ZeroBackground()
    if not (isinstance(obj, dict) and set(obj) == set(_SEED_KEYS)):
        raise ConfigError(f'seed must be "zero" or an object with the keys '
                          f'{", ".join(_SEED_KEYS)}, got {obj!r}')
    return PlaneWaveSeed(**{k: _number(obj[k], f"seed {k}")
                             for k in _SEED_KEYS})


def profile_from_json(obj) -> DeformationProfile:
    if not isinstance(obj, str):
        raise ConfigError("profile must be a string")
    return DeformationProfile.from_name(obj)


def grid_from_json(obj) -> GridSpec:
    if not isinstance(obj, dict):
        raise ConfigError("grid must be an object with x, y, t")
    for name in ("x", "y"):
        axis = obj.get(name)
        if not (isinstance(axis, (list, tuple)) and len(axis) == 3):
            raise ConfigError(f"grid {name} must be [min, max, n]")
    names = ("x_min", "x_max", "nx", "y_min", "y_max", "ny", "t")
    x0, x1, nx, y0, y1, ny, t = (
        _number(v, f"grid {name}")
        for name, v in zip(names, (*obj["x"], *obj["y"], obj.get("t", 0.0))))
    return GridSpec(x0, x1, y0, y1, nx, ny, t)
