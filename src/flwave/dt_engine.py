"""Assembly of the Omega system and field evaluation.

Each chart contributes 3(h+1) rows: the eigenfunction row, its two
conjugate companion rows, and that block repeated for every derivative
order up to the multiplicity.  Derivative rows are jet coefficients of
the whole entry lambda^m * phi, so the power and the eigenfunction are
differentiated together.  The transformed fields are the seed plus the
two determinant ratios det Omega_2 / det Omega_1 and det Omega_3 /
det Omega_1.  Omega_2 and Omega_3 are Omega_1 with column 3N-2 or 3N-1
replaced by one vector r, so by Cramer's rule the ratios are entries
3N-2 and 3N-1 of the solution z of Omega_1 z = r: one refined solve per
point gives both.  Where every chart is paired (its phi3 is its phi2),
the two ratios are equal, and the system is reduced to 2N x 2N whose
last unknown is both (_layout).

Points are evaluated chunk_points(config) at a time: their jets are
arrays with one column per point, Omega_1 is a (P, 3N, 3N) stack, or
(P, 2N, 2N) where reduced, and one stacked solve refines them all.  A
chunk holds CHUNK_ENTRIES entries of a 3N x 3N Omega_1: 2304, 576, 256
and 144 points for N = 1..4, so a 15x15 N = 3 panel is one chunk.  A
point's value does not depend on the chunk it is in.
evaluate_solution and the sampler's one-point call are the one-point
faces of the same code.  spec_from_json reads a whole run (seed,
profile, grid and charts) from its JSON form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .errors import ConfigError, SingularPointError
from .model import (DeformationProfile, PlaneWaveSeed, SeedBackground,
                    ZeroBackground, _number, background_field, grid_from_json,
                    profile_from_json, seed_from_json)
from .numerics import (GAP_REASONS, NON_FINITE, Jet, _frozen, jet_div,
                       jet_mul, scratch, series_exp, series_mul,
                       solve_stack)
from .spectral import (FORMS, BreatherChart, RogueChart, SpectralChart,
                       ZeroSeedChart, chart_jets, critical_lambda)

# fold count cap; conditioning of the 3N x 3N (or reduced 2N x 2N) systems
# degrades fast beyond it
MAX_FOLDS = 4
# Omega_1 entries per evaluation chunk, P * (3N)^2 (a reduced system
# keeps P, with 4/9 of the entries): a call's fixed cost is spread over
# P points, 256 at N = 3.  A chunk's large temporaries
# live in each thread's numerics workspace, the largest of them formed
# numerics.BLOCK_WORDS at a time, so the workspace stays about as large
# as it was with chunks of 64 N = 3 points.
CHUNK_ENTRIES = 256 * 81
_SPEC_KEYS = {"seed", "profile", "grid", "charts"}


@dataclass(frozen=True)
class DtConfig:
    """Ordered charts of one transformation; N = sum of (multiplicity + 1)."""

    charts: tuple[SpectralChart, ...]

    def __post_init__(self):
        charts = tuple(self.charts)
        object.__setattr__(self, "charts", charts)
        if not charts:
            raise ConfigError("a transformation needs at least one chart")
        n = self.folds
        if n > MAX_FOLDS:
            raise ConfigError(f"N = {n} exceeds the supported maximum {MAX_FOLDS}")
        for i in range(len(charts)):
            for j in range(i + 1, len(charts)):
                li, lj = charts[i].lam, charts[j].lam
                tol = 1e-12 * max(1.0, abs(li), abs(lj))
                # each modulus is finite, but their distance may not be;
                # by U(-lambda) = sigma U(lambda) sigma, a chart at -lambda
                # repeats the rows of one at lambda up to sign
                for d, how in ((li - lj, "equal"), (li + lj, "opposite")):
                    if math.hypot(d.real, d.imag) <= tol:
                        raise ConfigError(f"charts {i} and {j} have {how} "
                                          f"lambdas {li!r} and {lj!r}")

    @property
    def folds(self) -> int:
        return sum(1 + c.multiplicity for c in self.charts)


@dataclass(frozen=True)
class FieldSample:
    """The two fields at a point; arrays of them from a many-point call."""

    q1: complex
    q2: complex


def _jet_power(chart: SpectralChart) -> int:
    """p in lambda + eps^p: rogue charts perturb by eps^2, the others by
    eps, so derivative m is jet coefficient p*m."""
    return 2 if isinstance(chart, RogueChart) else 1


@lru_cache(maxsize=None)
def _power_jets(lam: complex, order: int, power: int, n_folds: int):
    """lambda^m as jets for m = -N..N, the exponents the column ladder
    uses: row m + N of a (2N+1, order+1) array."""
    one = Jet.constant(1.0, order)
    lam_jet = Jet.variable(lam, order, power)
    pows = {0: one, 1: lam_jet}
    for m in range(2, n_folds + 1):
        pows[m] = jet_mul(pows[m - 1], lam_jet)
    pows[-1] = inv = jet_div(one, lam_jet)
    for m in range(-2, -n_folds - 1, -1):
        pows[m] = jet_mul(pows[m + 1], inv)
    return _frozen(*(pows[m] for m in range(-n_folds, n_folds + 1)))


@lru_cache(maxsize=None)
def _merged_power_jets(lam: complex, order: int, power: int, n_folds: int):
    """The static jets a chart of a reduced system multiplies phi1 and phi2
    by, as a (2, 2N+1, order+1) array: lambda^m for phi1, and for phi2
    lambda^m doubled at the exponents N-1, N-3, ..., -(N-1), which only
    the merged columns read.  2 lambda^m phi2 is phi2 + phi2 exactly."""
    pows = _power_jets(lam, order, power, n_folds)
    twice = pows.copy()
    twice[1::2] *= 2
    return _frozen(pows, twice)


@lru_cache(maxsize=None)
def _layout(config: DtConfig, paired: tuple):
    """Where each entry of [Omega_1 | r] comes from, as three (3N, 3N+1)
    tables, or (2N, 2N+1) ones for a reduced system: a row of the stacked
    sources, whether to conjugate it, and whether to negate it.

    Column ladder: phi1 columns at lambda exponents N, N-2, ..., -(N-2)
    and (phi2, phi3) pairs at N-1, N-3, ..., -(N-1), interleaved in
    descending order.  The replacement vector r has, on every row, -mu^-N
    times the row's first component, mu being that row's eigenvalue.

    Each chart stacks three blocks of (2N+1) x (order+1) rows:
    lambda^m * phi1, lambda^m * phi2, and lambda^m * phi3, or lambda^m
    itself where the chart's phi3 is its phi2.  One zero row ends the
    stack.

    paired[i] says whether chart i's phi3 is its phi2 (the same jet:
    zero-seed and rogue charts, and breathers with l1 = 0 whose two
    phases agree).  Its second companion rows are then replaced by
    (comp3 - comp2) / phi1*, which collapses to pure conjugated lambda
    powers.  That row combination rescales every determinant by the same
    triangular factor (and r with Omega_1), so both ratios are unchanged,
    while the spurious rank drop at nodes of phi1 (the center of a rogue
    wave, where the faithful rows make 0/0) disappears.

    Where every chart is paired, those N rows are the same at every point
    and read V d = 0, d_j = z[3j+2] - z[3j+1], V a (confluent) Vandermonde
    matrix in conj(lambda)^-2 that DtConfig keeps nonsingular: so
    z[3j+2] = z[3j+1], and both ratios are the last unknown of the reduced
    system.  That system drops the N rows, adds column 3j+2 into column
    3j+1 and drops column 3j+2: a base row's two entries are the same
    lambda^m phi2, and a first companion row has only the one in column
    3j+1.  Each chart then stacks only its phi1 and phi2 blocks, the
    latter doubled where the merged columns read it (_merged_power_jets).
    """
    n = config.folds
    dim = 3 * n
    reduced = all(paired)
    block_rows = []
    offset = 0
    for chart, pair in zip(config.charts, paired):
        power = _jet_power(chart)
        k = power * chart.multiplicity + 1
        block = (2 * n + 1) * k

        def at(comp, m, c, offset=offset, block=block, k=k):
            return offset + comp * block + (m + n) * k + c

        for deriv in range(chart.multiplicity + 1):
            c = deriv * power
            base, comp2, comp3 = {}, {}, {}
            for j in range(n):
                m1 = n - 2 * j
                m23 = n - 1 - 2 * j
                base[3 * j] = (at(0, m1, c), False, False)
                base[3 * j + 1] = (at(1, m23, c), False, False)
                base[3 * j + 2] = (at(1 if pair else 2, m23, c), False, False)
                comp2[3 * j] = (at(1, m1, c), True, True)
                comp2[3 * j + 1] = (at(0, m23, c), True, False)
                if pair:
                    comp3[3 * j + 1] = (at(2, m23, c), True, True)
                    comp3[3 * j + 2] = (at(2, m23, c), True, False)
                else:
                    comp3[3 * j] = (at(2, m1, c), True, True)
                    comp3[3 * j + 2] = (at(0, m23, c), True, False)
            base[dim] = (at(0, -n, c), False, True)
            comp2[dim] = (at(1, -n, c), True, False)
            if not pair:
                comp3[dim] = (at(2, -n, c), True, False)
            block_rows += [base, comp2, comp3]
        offset += (2 if reduced else 3) * block
    zero = (offset, False, False)
    table = np.array([[row.get(col, zero) for col in range(dim + 1)]
                      for row in block_rows], dtype=object)
    if reduced:
        # every block's comp3 row, and every column 3j+2, go
        keep = np.arange(dim + 1) % 3 != 2
        table = table[keep[:-1]][:, keep]
    out = (table[..., 0].astype(np.intp), table[..., 1].astype(bool),
           table[..., 2].astype(bool))
    for a in out:
        a.flags.writeable = False
    return out


def _assemble(config: DtConfig, phis):
    """(Omega_1, r) stacks, (P, 3N, 3N) and (P, 3N), or (P, 2N, 2N) and
    (P, 2N) where every chart is paired, from each chart's point jets
    (phi1, phi2, phi3), of order power * multiplicity."""
    n = config.folds
    width = phis[0][0].shape[1]
    ks = [phi1.shape[0] for phi1, _, _ in phis]
    paired = tuple(phi3 is phi2 for _, phi2, phi3 in phis)
    reduced = all(paired)
    powers = _merged_power_jets if reduced else _power_jets
    src = scratch("assembly", (3 * (2 * n + 1) * sum(ks) + 1, width),
                  complex)
    at = 0
    for chart, k, pair, (phi1, phi2, phi3) in zip(config.charts, ks, paired,
                                                  phis):
        pows = powers(chart.lam, k - 1, _jet_power(chart), n)
        # lambda^m * phi_j for every m, each coefficient of which is one
        # derivative row's entry
        jets = [phi1, phi2] if pair else [phi1, phi2, phi3]
        size = len(jets) * (2 * n + 1) * k
        series_mul(pows, np.array(jets)[:, None], out=src[at:at + size]
                   .reshape(len(jets), 2 * n + 1, k, width))
        at += size
        if pair and not reduced:
            src[at:at + pows.size] = pows.reshape(-1, 1)
            at += pows.size
    src[at] = 0
    idx, conj, neg = _layout(config, paired)
    # a fresh array: np.take into a buffer copies the transposed source
    # first, and is slower than this gather
    g = src.T[:, idx]
    np.conjugate(g, out=g, where=conj)
    np.negative(g, out=g, where=neg)
    return g[..., :-1], g[..., -1]


def check_compat(background: SeedBackground, config: DtConfig):
    for chart in config.charts:
        if not isinstance(chart, ZeroSeedChart):
            _plane_wave(background)
        elif not isinstance(background, ZeroBackground):
            raise ConfigError("zero-seed charts require the zero background")


@lru_cache(maxsize=None)
def _check_scale(background: SeedBackground, config: DtConfig):
    """ConfigError where a chart's Omega_1 entries overflow at unit
    coordinates; once per seed and transformation, on the cached forms
    the first chunk reads.  Entry coefficient c is that of lambda^m phi;
    for m = -N it is bounded by the jet of |lambda^-N| times exp of the
    form's exponent coefficients 1.. at |x|, |y|, |t| <= 1.  A tiny
    lambda makes it about |lambda|^-(N+3c) for a zero-seed chart, whose
    phase's y/(4 lambda^2) gives lambda^-3 per order."""
    n = config.folds
    for chart in config.charts:
        power = _jet_power(chart)
        k = power * chart.multiplicity + 1
        theta = np.zeros((k, 1), complex)
        for term in FORMS[type(chart)](chart, background, k - 1).exponent:
            if term is not None:
                theta[1:, 0] += np.abs(term).max(axis=(0, 2))[1:k]
        with np.errstate(all="ignore"):
            bound = np.convolve(
                np.abs(_power_jets(chart.lam, k - 1, power, n)[0]),
                series_exp(theta)[:, 0].real)[:k]
        # a huge lambda makes NaN jets, not an overflow: only inf is one
        if np.isinf(bound).any():
            raise ConfigError(f"chart lambda = {chart.lam!r}: its Omega_1 "
                              f"entries overflow at N = {n}")


def _plane_wave(background: SeedBackground) -> PlaneWaveSeed:
    """The background, if breather and rogue charts can stand on it."""
    if isinstance(background, ZeroBackground):
        raise ConfigError("breather and rogue charts require a "
                          "plane-wave background")
    if background.d1 == 0 or background.d2 == 0:
        raise ConfigError("breather and rogue charts need nonzero "
                          "plane-wave amplitudes d1, d2")
    return background


CHART_KINDS = {"zero": ZeroSeedChart, "breather": BreatherChart,
               "rogue": RogueChart}


def spec_from_json(spec) -> tuple:
    """(background, DtConfig, profile, grid) of a run spec, checked:

    {"seed": "zero" | {"a1":..,"a2":..,"b1":..,"b2":..,"d1":..,"d2":..},
     "profile": "linear"|"quadratic"|"cubic"|"sine",
     "grid": {"x":[min,max,n], "y":[min,max,n], "t": value},
     "charts": [{"kind": "zero"|"breather"|"rogue", "lam": [re, im], ..}]}

    Seed and grid values are JSON numbers.  A chart needs "lam"; its other
    keys are its class's field names: h1 and h2 as [re, im] pairs, l1-l3
    numbers, shifts a list of [v, w] pairs, multiplicity a whole number.
    "lam": "critical" is the root of S on the seed.  A bad chart value is
    a ConfigError naming the chart's index and the key.
    """
    if not isinstance(spec, dict) or set(spec) != _SPEC_KEYS:
        raise ConfigError(f"a run spec has the keys {sorted(_SPEC_KEYS)}")
    background = seed_from_json(spec["seed"])
    if not isinstance(spec["charts"], (list, tuple)):
        raise ConfigError("charts must be a list of chart objects")
    charts = [_chart_from_json(i, chart, background)
              for i, chart in enumerate(spec["charts"])]
    config = DtConfig(charts)
    check_compat(background, config)
    return (background, config, profile_from_json(spec["profile"]),
            grid_from_json(spec["grid"]))


def _pair(value, what: str) -> tuple:
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise ConfigError(f"{what} must be a [re, im] pair, got {value!r}")
    return tuple(_number(v, what) for v in value)


def _chart_from_json(i: int, chart, background: SeedBackground):
    kind = chart.get("kind") if isinstance(chart, dict) else None
    if kind not in CHART_KINDS:
        raise ConfigError(f"chart kind must be one of "
                          f"{sorted(CHART_KINDS)}, got {kind!r}")
    values = {k: v for k, v in chart.items() if k != "kind"}
    unknown = set(values) - {f.name for f in fields(CHART_KINDS[kind])}
    if unknown:
        raise ConfigError(f"unknown {kind} chart keys: {sorted(unknown)}")
    if "lam" not in values:
        raise ConfigError(f"chart {i} needs lam")
    for key, value in values.items():
        what = f"chart {i} {key}"
        if key == "lam" and value == "critical":
            seed = _plane_wave(background)
            values[key] = critical_lambda(seed.a1, seed.d1)
        elif key in ("lam", "h1", "h2"):
            values[key] = complex(*_pair(value, what))
        elif key == "shifts":
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"{what} must be a list of [v, w] pairs, "
                                  f"got {value!r}")
            values[key] = tuple(_pair(v, f"{what} {j}")
                                for j, v in enumerate(value))
        elif key == "multiplicity":
            k = _number(value, what)
            if not (math.isfinite(k) and k == int(k)):
                raise ConfigError(f"{what} must be a whole number, "
                                  f"got {value!r}")
            values[key] = int(k)
        else:  # l1, l2, l3
            values[key] = _number(value, what)
    return CHART_KINDS[kind](**values)


def chunk_points(config: DtConfig) -> int:
    """Points per evaluation chunk of the transformation: as many as
    CHUNK_ENTRIES entries of Omega_1 hold."""
    return CHUNK_ENTRIES // (3 * config.folds) ** 2


def _evaluate_chunk(background, config, profile, x, y, t):
    """(q1, q2, why) at up to chunk_points(config) points given as
    contiguous arrays."""
    phis = [chart_jets(chart, background, profile, x, y, t,
                       _jet_power(chart) * chart.multiplicity)
            for chart in config.charts]
    z, why = solve_stack(*_assemble(config, phis))
    q1b, q2b = background_field(background, (x, y, t))
    # the last unknown of a reduced (2N) system is both ratios
    q1 = q1b + z[:, -1 if z.shape[1] == 2 * config.folds else -2]
    q2 = q2b + z[:, -1]
    finite = np.isfinite(q1) & np.isfinite(q2)
    if not np.logical_and.reduce(finite):
        bad = ~finite
        why[bad & (why == 0)] = NON_FINITE
        q1[bad] = q2[bad] = np.nan
    return q1, q2, why


def evaluate_points(background: SeedBackground, config: DtConfig,
                    profile: DeformationProfile, points):
    """The transformed fields at each of the (P, 3) points (x, y, t).

    Returns complex arrays q1, q2, NaN at gaps, and an int8 array saying
    why each gap is one (numerics.GAP_REASONS; 0 for a value).  A gap is
    a point whose Omega_1 has a zero pivot or a non-finite entry (as an
    overflowed exponential leaves) or is too ill-conditioned for an error
    bound, whose solution or field is not finite, or whose refined solve
    does not converge.  The points are evaluated
    chunk_points(config) at a time; each one's value is the same in any
    chunk.
    """
    check_compat(background, config)
    _check_scale(background, config)
    # one contiguous row per coordinate, as the one-point call has it
    cols = np.array(np.reshape(np.asarray(points, float), (-1, 3)).T)
    size = cols.shape[1]
    q1 = np.empty(size, complex)
    q2 = np.empty(size, complex)
    why = np.empty(size, np.int8)
    step = chunk_points(config)
    with np.errstate(all="ignore"):
        for s in range(0, size, step):
            part = slice(s, s + step)
            q1[part], q2[part], why[part] = _evaluate_chunk(
                background, config, profile, *cols[:, part])
    return q1, q2, why


def evaluate_solution(background: SeedBackground, config: DtConfig,
                      profile: DeformationProfile, point) -> FieldSample:
    """The transformed fields (q1[N], q2[N]) at one space-time point: the
    one-point face of evaluate_points.

    Raises SingularPointError where that marks a gap.
    """
    q1, q2, why = evaluate_points(background, config, profile, [point])
    if why[0]:
        raise SingularPointError(f"{GAP_REASONS[why[0]]} at point {point!r}")
    return FieldSample(complex(q1[0]), complex(q2[0]))


@dataclass(frozen=True)
class FieldSampler:
    """The fields of one transformation, sampled at one or many points."""

    background: SeedBackground
    config: DtConfig
    profile: DeformationProfile

    def __call__(self, points) -> FieldSample:
        """At one point (x, y, t), its FieldSample (SingularPointError at a
        gap).  At a (P, 3) array of points, one FieldSample of two complex
        arrays, NaN at gaps."""
        if np.ndim(points) == 2:
            q1, q2, _ = evaluate_points(self.background, self.config,
                                        self.profile, points)
            return FieldSample(q1, q2)
        return evaluate_solution(self.background, self.config, self.profile,
                                 points)


def solution_sampler(background: SeedBackground, config: DtConfig,
                     profile: DeformationProfile) -> FieldSampler:
    """Point -> FieldSample callable for the verification and search
    tools; it also takes many points at once."""
    return FieldSampler(background, config, profile)
