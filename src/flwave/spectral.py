"""Spectral charts and their Lax-pair eigenfunctions.

A chart is one spectral parameter with its multiplicity and the seed-kind
payload.  Each kind's eigenfunction is a sum of exponentials, as jets in
the perturbation of lambda (lambda + eps, or lambda + eps^2 for the
degenerate rogue charts): a cached ChartForm holds its static jets,
checked against the seed as it is built, and chart_jets evaluates any
form at many points; the `*_eigenfunction` functions at one point.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, NumericError, SingularPointError
from .model import (DeformationProfile, PlaneWaveSeed, SeedBackground,
                    ZeroBackground, profile_eval)
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
# the chart form: every eigenfunction is a sum of exponentials
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ChartForm:
    """The static part of a chart's eigenfunction jets, which chart_jets
    evaluates; a term a kind lacks is None."""

    exponent: tuple  # (n, K, 1) jets cx, cy, ct, c0 of x, y, t and 1
    rows: tuple  # one per component: its (sign, k) terms
    ch: np.ndarray | None = None  # (n, 1): f(y+t) on coefficient 0
    negate: bool = False  # -theta_k follow theta_k
    weights: np.ndarray | None = None  # real, (n, 1, 1)
    statics: np.ndarray | None = None  # multiply the last exponentials
    phases: tuple | None = None  # a_j, b_j, c_j, m: (n or 1, 1, 1)
    shift: int = 0  # the eps^-shift prefactor
    even: bool = False  # odd coefficients vanish in exact arithmetic


def chart_jets(chart: SpectralChart, background: SeedBackground,
               profile: DeformationProfile, x, y, t, jet_order: int):
    """The chart's eigenfunction jets (phi1, phi2, phi3) of order jet_order
    at the points x, y, t: complex arrays (jet_order + 1, P).

    The terms are exp(theta_k), theta_k = cx_k x + cy_k y [+ ct_k t + c0_k]
    [+ ch_k f(y+t)], times the weights, and the statics' products with
    the last of them.  Each row adds its terms left to right; the last
    len(m) take exp(i m theta_j), theta_j = a_j x + b_j y + c_j t.  A
    form of two rows returns phi2 itself as phi3: the chart is paired.
    """
    form = FORMS[type(chart)](chart, background, jet_order)
    cx, *others = form.exponent
    re, im = cx.real * x, cx.imag * x
    # a term a form lacks is not added: adding 0 can flip a signed zero
    for c, v in zip(others, (y, t, 1.0)):
        if c is not None:
            re += c.real * v
            im += c.imag * v
    if form.ch is not None:
        f = profile_eval(profile, y + t)
        re[:, 0] += form.ch.real * f
        im[:, 0] += form.ch.imag * f
    theta = np.empty(re.shape, complex)
    theta.real, theta.imag = re, im
    if form.negate:
        theta = np.concatenate([theta, -theta])
    e = series_exp(theta)
    if form.weights is not None:
        e = rmul(e, form.weights)
    terms = list(e)
    if form.statics is not None:
        tail = e[len(e) - len(form.statics):]
        terms += list(series_mul(form.statics, tail,
                                 scratch("products", tail.shape, complex)))
    if form.shift:
        terms = [s[form.shift:form.shift + jet_order + 1] for s in terms]
    rows = []
    for (sign, k), *rest in form.rows:
        acc = terms[k] if sign > 0 else -terms[k]
        for sign, k in rest:
            acc = acc + terms[k] if sign > 0 else acc - terms[k]
        rows.append(acc)
    if form.phases is not None:
        a, b, c, m = form.phases
        rows[-len(m):] = cmul(np.array(rows[-len(m):]),
                              polar(1.0, m * (a * x + b * y + c * t)))
    if form.even:
        _check_even_parity(rows)
    return rows[0], rows[1], rows[-1]


def _one_point(point) -> tuple:
    return tuple(np.array([float(v)]) for v in point)


def _one_triple(chart, background, profile, point, jet_order) -> EigenTriple:
    """The chart's EigenTriple at one point, built with warnings off;
    SingularPointError where it is not finite."""
    with np.errstate(all="ignore"):
        phis = chart_jets(chart, background, profile, *_one_point(point),
                          jet_order)
    if not all(np.isfinite(phi).all() for phi in phis):
        raise SingularPointError(
            f"{GAP_REASONS[NON_FINITE]} at point {point!r}")
    return EigenTriple(*(Jet(phi[:, 0]) for phi in phis))


# ---------------------------------------------------------------------------
# the forms of the three kinds: zero-seed charts (solitons, positons),
# breathers on the plane wave, and rogue waves at a root of S
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _zero_seed_static(chart: ZeroSeedChart, seed, order: int) -> ChartForm:
    lam = Jet.variable(chart.lam, order)
    lam2 = jet_mul(lam, lam)
    inv4l2 = jet_div(Jet.constant(1.0, order), 4 * lam2)
    cx, cy = _frozen(-1j * lam2, 1j * (inv4l2 - 1))[:, None, :, None]
    # phi1 = exp(theta), phi2 = phi3 = exp(-theta)
    return ChartForm((cx, cy, None, None), (((1, 0),), ((1, 1),)),
                     ch=_frozen([1j * chart.h1]), negate=True)


def zero_seed_eigenfunction(chart: ZeroSeedChart, profile: DeformationProfile,
                            point, jet_order: int) -> EigenTriple:
    return _one_triple(chart, ZeroBackground(), profile, point, jet_order)


@lru_cache(maxsize=None)
def _breather_static(chart: BreatherChart, seed: PlaneWaveSeed,
                     order: int) -> ChartForm:
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
    w12 = jet_div(2j * a1 * d1 * lam, (1j * a1 + H) * 0.5 + 1j * lam2)
    w13 = jet_div(2j * a1 * d1 * lam, (1j * a1 - H) * 0.5 + 1j * lam2)
    inv4l2 = jet_div(Jet.constant(1.0, order), 4 * lam2)
    h_over = jet_div(H, 4 * a1 * lam2)
    beta1 = 2 * d1 * d1 + 1 / a1 + 1 + inv4l2
    beta2 = d1 * d1 + 1 / (2 * a1) + seed.b1 - seed.c1 + 1
    beta3 = d1 * d1 + 1 / (2 * a1) + seed.b2 - seed.c2 + 1
    # exponentials e1, e2, e3; the +H/-H halves pair with the W jets
    # built from the same branch, which multiply e2 and e3
    cx = _frozen(1j * (a1 + lam2), 0.5j * a1 + 0.5 * H, 0.5j * a1 - 0.5 * H)
    cy = _frozen(-1j * beta1, 1j * beta2 - h_over, 1j * beta3 + h_over)
    # psi1 = W12 e2 + W13 e3, psi2 = (-e1 + e2 + e3) exp(-i theta1) and
    # psi3 = (e1 + e2 + e3) exp(-i theta2), which is psi2 where l1 = 0
    # and the two phases agree
    rows = (((1, 3), (1, 4)), ((-1, 0), (1, 1), (1, 2)),
            ((1, 0), (1, 1), (1, 2)))
    phases = _frozen((seed.a1, seed.b1, seed.c1, -1.0),
                     (seed.a2, seed.b2, seed.c2, -1.0))
    n = 1 if chart.l1 == 0 and (phases[0] == phases[1]).all() else 2
    return ChartForm(
        (cx[..., None], cy[..., None], None, None), rows[:1 + n],
        ch=_frozen([1j * chart.h1], [-1j * chart.h2], [-1j * chart.h1]),
        weights=_frozen(chart.l1, chart.l2, chart.l3)[:, None, None],
        statics=_frozen(w12, w13),
        phases=tuple(phases[:n].T[..., None, None]))


def breather_eigenfunction(chart: BreatherChart, seed: PlaneWaveSeed,
                           profile: DeformationProfile, point,
                           jet_order: int) -> EigenTriple:
    return _one_triple(chart, seed, profile, point, jet_order)


@lru_cache(maxsize=None)
def _rogue_static(chart: RogueChart, seed: PlaneWaveSeed,
                  jet_order: int) -> ChartForm:
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
    # the eps^-1 prefactor shifts every series down by one, so the window
    # reads coefficients 1 .. jet_order + 1.  sqrt(S) leads at eps^1, and
    # its coefficient jet_order + 1 needs S's at jet_order + 2: the jets
    # are built one order higher and that top coefficient is dropped
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
    # A = half (x + iy + R t + delta), then -A: phi1 = (e^A - e^-A)
    # e^(i theta1/2) / eps and phi2 = phi3 = (c- e^A - c+ e^-A)
    # e^(-i theta1/2) / eps, whose eps^0 coefficients are exactly zero
    # (sqrt(S) has none); i half is formed part by part, so that its parts
    # are exactly -half.imag and half.real
    i_half = [complex(-c.imag, c.real) for c in half.coeffs]
    exponent = _frozen(half, i_half, jet_mul(half, R),
                       jet_mul(half, delta_jet))[:, None, :-1, None]
    # both phases are of theta1, which is formed once
    abc = _frozen(a1, seed.b1, seed.c1)[:, None, None, None]
    return ChartForm(tuple(exponent), (((1, 0), (-1, 1)), ((1, 2), (-1, 3))),
                     negate=True, statics=_frozen(c_minus, c_plus)[:, :-1],
                     phases=(*abc, _frozen(0.5, -0.5)[:, None, None]),
                     shift=1, even=True)


def rogue_eigenfunction_jet(chart: RogueChart, seed: PlaneWaveSeed, point,
                            jet_order: int) -> EigenTriple:
    # rogue exponents have no f(y+t) term: no profile is read
    return _one_triple(chart, seed, None, point, jet_order)


def _check_even_parity(rows):
    """NumericError where a finite point's odd-order coefficients, which
    vanish in exact arithmetic, reach EVEN_PARITY_RTOL of its largest."""
    mags = np.abs(rows)
    scale = np.maximum.reduce(mags, axis=(0, 1))
    worst = np.maximum.reduce(mags[:, 1::2], axis=(0, 1), initial=0.0)
    # a non-finite scale compares false: that point is a gap, not a break
    bad = worst > EVEN_PARITY_RTOL * scale
    if bad.any():
        k = int(np.argmax(bad))
        raise NumericError(
            f"odd-order coefficients reach {worst[k]:.3e} relative to "
            f"{scale[k]:.3e}; the eps-expansion lost its even parity")


# each kind's cached form, (chart, background, jet order) -> ChartForm
FORMS = {ZeroSeedChart: _zero_seed_static, BreatherChart: _breather_static,
         RogueChart: _rogue_static}
