"""Spectral charts and Lax-pair eigenfunction builders.

A chart is one spectral parameter with its multiplicity and the seed-kind
payload (deformation constants, superposition constants, shift controls).
Builders return eigenfunction triples as jets in the perturbation of the
spectral parameter (lambda + eps for plain charts, lambda + eps^2 for the
degenerate rogue charts), so derivative columns for the generalized
transformation fall out of the same code path as plain evaluation.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import lru_cache

from .errors import ConfigError, NumericError
from .model import (DeformationProfile, PlaneWaveSeed, SeedBackground,
                    profile_eval)
from .numerics import Jet, jet_div, jet_exp, jet_mul, jet_sqrt_even

# relative tolerance deciding whether S(lambda) counts as zero: the critical
# lambda is only float-accurate, so S lands near 1e-16 * scale, never at 0
DEGENERATE_S_RTOL = 1e-10

# relative ceiling for the odd-index jet coefficients of a rogue triple,
# which vanish identically in exact arithmetic
EVEN_PARITY_RTOL = 1e-10


@dataclass(frozen=True)
class ZeroSeedChart:
    """Chart on the zero background; multiplicity > 0 gives positons."""

    lam: complex
    h1: complex = 0j
    multiplicity: int = 0

    def __post_init__(self):
        object.__setattr__(self, "lam", complex(self.lam))
        object.__setattr__(self, "h1", complex(self.h1))
        _check_chart_common(self.lam, self.multiplicity, h1=self.h1)


@dataclass(frozen=True)
class BreatherChart:
    """Chart on a plane-wave background away from the degenerate locus."""

    lam: complex
    l1: float = 0.0
    l2: float = 1.0
    l3: float = 1.0
    h1: complex = 0j
    h2: complex = 0j
    multiplicity: int = 0

    def __post_init__(self):
        object.__setattr__(self, "lam", complex(self.lam))
        object.__setattr__(self, "h1", complex(self.h1))
        object.__setattr__(self, "h2", complex(self.h2))
        _check_chart_common(self.lam, self.multiplicity, h1=self.h1,
                            h2=self.h2, l1=self.l1, l2=self.l2, l3=self.l3)


@dataclass(frozen=True)
class RogueChart:
    """Chart at a root of S; shifts (v_j, w_j) feed the delta-hat series."""

    lam: complex
    shifts: tuple[tuple[float, float], ...] = ()
    multiplicity: int = 0

    def __post_init__(self):
        object.__setattr__(self, "lam", complex(self.lam))
        shifts = tuple((float(v), float(w)) for v, w in self.shifts)
        object.__setattr__(self, "shifts", shifts)
        _check_chart_common(self.lam, self.multiplicity, **{
            f"shift {j}": complex(v, w) for j, (v, w) in enumerate(shifts)})
        # v_j + i w_j is the eps^(2j) coefficient of the shift series,
        # which reaches eigenfunction jets of order 2 * multiplicity only
        # for j <= multiplicity
        if len(shifts) > self.multiplicity + 1:
            raise ConfigError(f"rogue shift index {len(shifts) - 1} exceeds "
                              f"the multiplicity {self.multiplicity}")


SpectralChart = ZeroSeedChart | BreatherChart | RogueChart


def _check_chart_common(lam: complex, multiplicity: int, **values):
    for name, v in (("lambda", lam), *values.items()):
        if not cmath.isfinite(v):
            raise ConfigError(f"chart {name} must be finite, got {v!r}")
    if lam == 0:
        raise ConfigError("spectral parameter lambda must be nonzero")
    if multiplicity < 0:
        raise ConfigError("chart multiplicity must be >= 0")


@dataclass(frozen=True)
class EigenTriple:
    """One eigenfunction of the Lax system, componentwise as jets."""

    phi1: Jet
    phi2: Jet
    phi3: Jet

    def values(self) -> tuple[complex, complex, complex]:
        return (self.phi1.coeffs[0], self.phi2.coeffs[0], self.phi3.coeffs[0])


# ---------------------------------------------------------------------------
# spectral helper quantities
# ---------------------------------------------------------------------------


def discriminant_S(lam, a1: float, d1: float):
    """-4 lam^4 + (-8 a1^2 d1^2 - 4 a1) lam^2 - a1^2, for scalars or jets."""
    lam2 = lam * lam
    return -4 * lam2 * lam2 + (-8 * a1 * a1 * d1 * d1 - 4 * a1) * lam2 - a1 * a1


def _S_scale(lam: complex, a1: float, d1: float) -> float:
    m = abs(lam) ** 2
    return 4 * m * m + abs(8 * a1 * a1 * d1 * d1 + 4 * a1) * m + a1 * a1


def is_critical(lam: complex, seed: SeedBackground) -> bool:
    """Whether S(lambda) counts as zero on this seed (never on zero seeds)."""
    if not isinstance(seed, PlaneWaveSeed):
        return False
    S0 = discriminant_S(lam, seed.a1, seed.d1)
    return abs(S0) <= DEGENERATE_S_RTOL * _S_scale(lam, seed.a1, seed.d1)


def critical_lambda(a1: float, d1: float,
                    branch: tuple[int, int] = (1, -1)) -> complex:
    """Root of S from the printed nested radical; branch = (outer, inner) signs."""
    if a1 == 0:
        raise ConfigError("a1 must be nonzero for the critical lambda")
    s_out, s_in = branch
    if s_out not in (1, -1) or s_in not in (1, -1):
        raise ConfigError("branch must be a pair of +1/-1 signs")
    inner = cmath.sqrt(a1 * a1 * d1 ** 4 + d1 * d1 * a1)
    radicand = -4 * a1 * a1 * d1 * d1 + s_in * 4 * a1 * inner - 2 * a1
    return s_out * 0.5 * cmath.sqrt(radicand)


def rogue_R(lam, seed: PlaneWaveSeed):
    """The drift coefficient R of the travelling argument x + iy + Rt, for
    scalars or jets.

    Under the dispersion relation with a1 = a2 and d1 = d2, the printed
    quotient for R equals i + 1/(2 a1 lam^2) for either sign of sqrt(S),
    so the zeros of its printed denominator are removable.
    """
    if not seed.symmetric:
        raise ConfigError("R needs a seed with a1 == a2 and d1 == d2")
    return 1j + 1 / (2 * seed.a1 * lam * lam)


# ---------------------------------------------------------------------------
# zero-seed eigenfunctions (solitons, positons)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _zero_seed_static(chart: ZeroSeedChart, order: int):
    lam = Jet.variable(chart.lam, order)
    lam2 = jet_mul(lam, lam)
    inv4l2 = jet_div(Jet.constant(1.0, order), 4 * lam2)
    cx = -1j * lam2
    cy = 1j * (inv4l2 - 1)
    return cx, cy


def zero_seed_eigenfunction(chart: ZeroSeedChart, profile: DeformationProfile,
                            point, jet_order: int) -> EigenTriple:
    x, y, t = point
    cx, cy = _zero_seed_static(chart, jet_order)
    f = profile_eval(profile, y + t)
    exponent = cx * x + cy * y + (1j * chart.h1 * f)
    phi1 = jet_exp(exponent)
    phi23 = jet_exp(-exponent)
    return EigenTriple(phi1, phi23, phi23)


# ---------------------------------------------------------------------------
# breather eigenfunctions on the plane wave
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _breather_static(chart: BreatherChart, seed: PlaneWaveSeed, order: int):
    a1, d1 = seed.a1, seed.d1
    lam = Jet.variable(chart.lam, order)
    lam2 = jet_mul(lam, lam)
    S = discriminant_S(lam, a1, d1)
    H = jet_sqrt_even(S)
    one = Jet.constant(1.0, order)
    w12 = jet_div(2j * a1 * d1 * lam, (1j * a1 + H) * 0.5 + 1j * lam2)
    w13 = jet_div(2j * a1 * d1 * lam, (1j * a1 - H) * 0.5 + 1j * lam2)
    inv4l2 = jet_div(one, 4 * lam2)
    h_over = jet_div(H, 4 * a1 * lam2)
    beta1 = 2 * d1 * d1 + 1 / a1 + 1 + inv4l2
    beta2 = d1 * d1 + 1 / (2 * a1) + seed.b1 - seed.c1 + 1
    beta3 = d1 * d1 + 1 / (2 * a1) + seed.b2 - seed.c2 + 1
    # exponent = cx*x + cy*y + ch*f(y+t); the +H/-H halves pair with the
    # W columns built from the same branch
    cx1 = 1j * (a1 + lam2)
    cy1 = -1j * beta1
    cx2 = 0.5j * a1 + 0.5 * H
    cy2 = 1j * beta2 - h_over
    cx3 = 0.5j * a1 - 0.5 * H
    cy3 = 1j * beta3 + h_over
    return (w12, w13, cx1, cy1, cx2, cy2, cx3, cy3)


def breather_eigenfunction(chart: BreatherChart, seed: PlaneWaveSeed,
                           profile: DeformationProfile, point,
                           jet_order: int) -> EigenTriple:
    if not seed.symmetric:
        raise ConfigError(
            "breather eigenfunctions need a1 == a2 and d1 == d2")
    if is_critical(chart.lam, seed):
        raise ConfigError(
            f"S({chart.lam!r}) = 0: use a rogue chart for this lambda")
    x, y, t = point
    (w12, w13, cx1, cy1, cx2, cy2, cx3, cy3) = _breather_static(
        chart, seed, jet_order)
    f = profile_eval(profile, y + t)
    e1 = chart.l1 * jet_exp(cx1 * x + cy1 * y + (1j * chart.h1 * f))
    e2 = chart.l2 * jet_exp(cx2 * x + cy2 * y + (-1j * chart.h2 * f))
    e3 = chart.l3 * jet_exp(cx3 * x + cy3 * y + (-1j * chart.h1 * f))
    psi1 = jet_mul(w12, e2) + jet_mul(w13, e3)
    psi2 = -e1 + e2 + e3
    psi3 = e1 + e2 + e3
    th1, th2 = seed.theta(x, y, t)
    return EigenTriple(psi1,
                       cmath.exp(-1j * th1) * psi2,
                       cmath.exp(-1j * th2) * psi3)


# ---------------------------------------------------------------------------
# rogue eigenfunctions at the degenerate spectral parameter
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _rogue_static(chart: RogueChart, seed: PlaneWaveSeed, internal_order: int):
    a1, d1 = seed.a1, seed.d1
    lam = Jet.variable(chart.lam, internal_order, power=2)
    lam2 = jet_mul(lam, lam)
    S = discriminant_S(lam, a1, d1)
    sqS = jet_sqrt_even(S)
    R = rogue_R(lam, seed)
    delta = [0j] * (internal_order + 1)
    for j, (v, w) in enumerate(chart.shifts):
        delta[2 * j] = complex(v, w)
    delta_jet = Jet(delta)
    half = 0.5 * sqS
    c_minus = jet_div(2 * lam2 + a1 - 1j * sqS, 4 * a1 * d1 * lam)
    c_plus = jet_div(2 * lam2 + a1 + 1j * sqS, 4 * a1 * d1 * lam)
    k_xy = half
    k_t = jet_mul(half, R)
    k_shift = jet_mul(half, delta_jet)
    return k_xy, k_t, k_shift, c_minus, c_plus


def rogue_eigenfunction_jet(chart: RogueChart, seed: PlaneWaveSeed, point,
                            jet_order: int) -> EigenTriple:
    if not seed.symmetric or seed.b1 != seed.b2:
        raise ConfigError(
            "rogue eigenfunctions need a1 == a2, d1 == d2 and b1 == b2")
    if not is_critical(chart.lam, seed):
        S0 = discriminant_S(chart.lam, seed.a1, seed.d1)
        raise ConfigError(
            f"S({chart.lam!r}) = {S0!r} is not zero; rogue charts need the "
            "critical lambda")
    if jet_order < 2 * chart.multiplicity:
        raise ConfigError(
            f"rogue chart of multiplicity {chart.multiplicity} needs jet "
            f"order >= {2 * chart.multiplicity}, got {jet_order}")
    x, y, t = point
    # two extra orders: the eps^-1 prefactor shifts every series down by
    # one, and the eps^2 perturbation itself needs headroom at order 0
    k_xy, k_t, k_shift, c_minus, c_plus = _rogue_static(
        chart, seed, jet_order + 2)
    A = k_xy * complex(x, y) + k_t * t + k_shift
    eA = jet_exp(A)
    emA = jet_exp(-A)
    bracket1 = (eA - emA).shifted_down(1).truncated(jet_order)
    bracket2 = (jet_mul(c_minus, eA)
                - jet_mul(c_plus, emA)).shifted_down(1).truncated(jet_order)
    th1, _ = seed.theta(x, y, t)
    phi1 = cmath.exp(0.5j * th1) * bracket1
    phi23 = cmath.exp(-0.5j * th1) * bracket2
    triple = EigenTriple(phi1, phi23, phi23)
    _check_even_parity(triple)
    return triple


def _check_even_parity(triple: EigenTriple):
    scale = max(max(abs(c) for c in jet.coeffs)
                for jet in (triple.phi1, triple.phi2, triple.phi3))
    if scale == 0.0:
        return
    worst = 0.0
    for jet in (triple.phi1, triple.phi2, triple.phi3):
        for i in range(1, len(jet.coeffs), 2):
            worst = max(worst, abs(jet.coeffs[i]))
    if worst > EVEN_PARITY_RTOL * scale:
        raise NumericError(
            f"odd-order coefficients reach {worst:.3e} relative to {scale:.3e}; "
            "the eps-expansion lost its even parity")
