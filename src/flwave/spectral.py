"""Spectral charts and Lax-pair eigenfunction builders.

A chart is one spectral parameter with its multiplicity and the seed-kind
payload (deformation constants, superposition constants, shift controls).
Builders return eigenfunction triples as jets in the perturbation of the
spectral parameter (lambda + eps for plain charts, lambda + eps^2 for the
degenerate rogue charts), so derivative columns for the generalized
transformation fall out of the same code path as plain evaluation.

The `*_jets` builders take the coordinates of many points as float
arrays and return the three components as complex arrays of shape
(order + 1, P), the third being the second object itself where the two
are equal by construction.  Only the exponents vary per point: the rest
is a per-chart static jet, cached, and the chart's checks against its
seed run as it is built.  The `*_eigenfunction` builders are their
one-point faces.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, NumericError, SingularPointError
from .model import (DeformationProfile, PlaneWaveSeed, SeedBackground,
                    profile_eval)
from .numerics import (GAP_REASONS, NON_FINITE, Jet, _frozen, cmul,
                       jet_div, jet_mul, jet_sqrt_even, polar, rmul, scratch,
                       series_exp, series_mul)

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
    if math.isinf(math.hypot(lam.real, lam.imag)):
        raise ConfigError(f"chart lambda = {lam!r}: its modulus overflows")
    if lam * lam == 0:  # lambda = 0, or a square the builders divide by
        raise ConfigError(f"chart lambda = {lam!r}: its square is 0")
    if multiplicity < 0:
        raise ConfigError("chart multiplicity must be >= 0")


@dataclass(frozen=True)
class EigenTriple:
    """One eigenfunction of the Lax system, componentwise as jets."""

    phi1: Jet
    phi2: Jet
    phi3: Jet


# ---------------------------------------------------------------------------
# spectral helper quantities
# ---------------------------------------------------------------------------


def discriminant_S(lam, a1: float, d1: float):
    """-4 lam^4 + (-8 a1^2 d1^2 - 4 a1) lam^2 - a1^2, for scalars or jets."""
    lam2 = lam * lam
    return -4 * lam2 * lam2 + (-8 * a1 * a1 * d1 * d1 - 4 * a1) * lam2 - a1 * a1


def is_critical(lam: complex, seed: SeedBackground) -> bool:
    """Whether S(lambda) counts as zero on this seed (never on zero seeds).
    Where S or its scale overflows, neither holds: ConfigError."""
    if not isinstance(seed, PlaneWaveSeed):
        return False
    a1, d1 = seed.a1, seed.d1
    try:
        size, m = abs(discriminant_S(lam, a1, d1)), abs(lam) ** 2
    except OverflowError:
        size = m = cmath.inf
    scale = 4 * m * m + abs(8 * a1 * a1 * d1 * d1 + 4 * a1) * m + a1 * a1
    if not cmath.isfinite(size + scale):
        raise ConfigError(f"S overflows at chart lambda = {lam!r} on its seed")
    return size <= DEGENERATE_S_RTOL * scale


def critical_lambda(a1: float, d1: float) -> complex:
    """Root of S from the printed nested radical, outer sign +, inner -."""
    if a1 == 0:
        raise ConfigError("a1 must be nonzero for the critical lambda")
    try:
        inner = cmath.sqrt(a1 * a1 * d1 ** 4 + d1 * d1 * a1)
    except OverflowError:  # d1 ** 4
        raise ConfigError(f"seed d1 = {d1!r}: d1^4 overflows") from None
    radicand = -4 * a1 * a1 * d1 * d1 - 4 * a1 * inner - 2 * a1
    return 0.5 * cmath.sqrt(radicand)


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
# shared pieces of the array builders
# ---------------------------------------------------------------------------


def _exponent(cx, cy, ch, x, y, f) -> np.ndarray:
    """cx*x + cy*y + ch*f(y+t) for static jets cx, cy (..., K), constants
    ch (...) and per-point x, y, f: (..., K, P), rounded as the same Jet
    expression is."""
    re = cx.real[..., None] * x + cy.real[..., None] * y
    im = cx.imag[..., None] * x + cy.imag[..., None] * y
    re[..., 0, :] += np.multiply.outer(np.real(ch), f)
    im[..., 0, :] += np.multiply.outer(np.imag(ch), f)
    e = np.empty(re.shape, complex)
    e.real = re
    e.imag = im
    return e


def _one_point(point) -> tuple:
    return tuple(np.array([float(v)]) for v in point)


def _one_triple(build, args, point, jet_order) -> EigenTriple:
    """The EigenTriple of build(*args, x, y, t, jet_order) at one point,
    built with warnings off; SingularPointError where it is not finite."""
    with np.errstate(all="ignore"):
        phis = build(*args, *_one_point(point), jet_order)
    if not all(np.isfinite(phi).all() for phi in phis):
        raise SingularPointError(
            f"{GAP_REASONS[NON_FINITE]} at point {point!r}")
    return EigenTriple(*(Jet(phi[:, 0]) for phi in phis))


# ---------------------------------------------------------------------------
# zero-seed eigenfunctions (solitons, positons)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _zero_seed_static(chart: ZeroSeedChart, order: int):
    lam = Jet.variable(chart.lam, order)
    lam2 = jet_mul(lam, lam)
    inv4l2 = jet_div(Jet.constant(1.0, order), 4 * lam2)
    return _frozen(-1j * lam2, 1j * (inv4l2 - 1))


def zero_seed_jets(chart: ZeroSeedChart, profile: DeformationProfile,
                   x, y, t, jet_order: int):
    cx, cy = _zero_seed_static(chart, jet_order)
    exponent = _exponent(cx, cy, 1j * chart.h1, x, y,
                         profile_eval(profile, y + t))
    phi1, phi23 = series_exp(np.array([exponent, -exponent]))
    return phi1, phi23, phi23


def zero_seed_eigenfunction(chart: ZeroSeedChart, profile: DeformationProfile,
                            point, jet_order: int) -> EigenTriple:
    return _one_triple(zero_seed_jets, (chart, profile), point, jet_order)


# ---------------------------------------------------------------------------
# breather eigenfunctions on the plane wave
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _breather_static(chart: BreatherChart, seed: PlaneWaveSeed, order: int):
    if not seed.symmetric:
        raise ConfigError(
            "breather eigenfunctions need a1 == a2 and d1 == d2")
    if is_critical(chart.lam, seed):
        raise ConfigError(
            f"S({chart.lam!r}) = 0: use a rogue chart for this lambda")
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
    # the W jets, the three exponents' cx, cy and ch, and their weights
    return (_frozen(w12, w13), _frozen(cx1, cx2, cx3),
            _frozen(cy1, cy2, cy3),
            _frozen(1j * chart.h1, -1j * chart.h2, -1j * chart.h1),
            _frozen(chart.l1, chart.l2, chart.l3)[:, None, None])


def breather_jets(chart: BreatherChart, seed: PlaneWaveSeed,
                  profile: DeformationProfile, x, y, t, jet_order: int):
    w, cx, cy, ch, weights = _breather_static(chart, seed, jet_order)
    f = profile_eval(profile, y + t)
    e = rmul(series_exp(_exponent(cx, cy, ch, x, y, f)), weights)
    e1, e2, e3 = e
    w_e2, w_e3 = series_mul(w, e[1:])
    psi1 = w_e2 + w_e3
    th1, th2 = seed.theta(x, y, t)
    # with l1 = 0 and equal phases the last two components coincide
    if chart.l1 == 0 and (seed.a1, seed.b1, seed.c1) \
            == (seed.a2, seed.b2, seed.c2):
        psi2 = cmul(-e1 + e2 + e3, polar(1.0, -th1))
        return psi1, psi2, psi2
    psi2, psi3 = cmul(np.array([-e1 + e2 + e3, e1 + e2 + e3]),
                      polar(1.0, -np.array([th1, th2]))[:, None])
    return psi1, psi2, psi3


def breather_eigenfunction(chart: BreatherChart, seed: PlaneWaveSeed,
                           profile: DeformationProfile, point,
                           jet_order: int) -> EigenTriple:
    return _one_triple(breather_jets, (chart, seed, profile), point,
                       jet_order)


# ---------------------------------------------------------------------------
# rogue eigenfunctions at the degenerate spectral parameter
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _rogue_static(chart: RogueChart, seed: PlaneWaveSeed, jet_order: int):
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
    # two extra orders: the eps^-1 prefactor shifts every series down by
    # one, and the eps^2 perturbation itself needs headroom at order 0
    internal_order = jet_order + 2
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
    return (*_frozen(k_xy, k_t, k_shift), _frozen(c_minus, c_plus))


def rogue_jets(chart: RogueChart, seed: PlaneWaveSeed, x, y, t,
               jet_order: int):
    k_xy, k_t, k_shift, c = _rogue_static(chart, seed, jet_order)
    w = np.empty(len(x), complex)
    w.real, w.imag = x, y
    A = (cmul(k_xy[:, None], w) + rmul(k_t[:, None], t)) + k_shift[:, None]
    e = series_exp(np.array([A, -A]))
    eA, emA = e
    # the eps^0 coefficients of both brackets are exactly zero (sqrt(S)
    # has none), so dividing by eps drops them
    keep = slice(1, jet_order + 2)
    bracket1 = (eA - emA)[keep]
    c_eA, c_emA = series_mul(c, e,
                             scratch("rogue_series", e.shape, complex))
    bracket2 = (c_eA - c_emA)[keep]
    th1, _ = seed.theta(x, y, t)
    phase = polar(1.0, 0.5 * th1)
    phi1 = cmul(bracket1, phase)
    phi23 = cmul(bracket2, phase.conj())
    _check_even_parity(phi1, phi23)
    return phi1, phi23, phi23


def rogue_eigenfunction_jet(chart: RogueChart, seed: PlaneWaveSeed, point,
                            jet_order: int) -> EigenTriple:
    return _one_triple(rogue_jets, (chart, seed), point, jet_order)


def _check_even_parity(phi1: np.ndarray, phi23: np.ndarray):
    """Odd-order coefficients vanish in exact arithmetic; where a finite
    point's reach EVEN_PARITY_RTOL of its largest, the expansion broke."""
    mags = np.abs(np.concatenate([phi1, phi23]))
    scale = np.maximum.reduce(mags)
    worst = np.maximum.reduce(np.concatenate([mags[1:len(phi1):2],
                                              mags[len(phi1) + 1::2],
                                              np.zeros_like(mags[:1])]))
    # a non-finite scale compares false: that point is a gap, not a break
    bad = worst > EVEN_PARITY_RTOL * scale
    if bad.any():
        k = int(np.argmax(bad))
        raise NumericError(
            f"odd-order coefficients reach {worst[k]:.3e} relative to "
            f"{scale[k]:.3e}; the eps-expansion lost its even parity")
