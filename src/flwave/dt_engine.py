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
point gives both.  spec_from_json reads a whole run (seed, profile, grid
and charts) from its JSON form.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass, fields
from functools import lru_cache

from .errors import ConfigError, SingularPointError
from .model import (DeformationProfile, PlaneWaveSeed, SeedBackground,
                    ZeroBackground, background_field, grid_from_json,
                    profile_from_json, seed_from_json)
from .numerics import Jet, SquareMatrix, jet_div, jet_mul, solve
from .spectral import (BreatherChart, EigenTriple, RogueChart, SpectralChart,
                       ZeroSeedChart, breather_eigenfunction, critical_lambda,
                       rogue_eigenfunction_jet, zero_seed_eigenfunction)

# fold count cap; conditioning of the 3N x 3N systems degrades fast beyond it
MAX_FOLDS = 4
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
                if abs(li - lj) <= 1e-12 * max(1.0, abs(li), abs(lj)):
                    raise ConfigError(
                        f"charts {i} and {j} share lambda = {li!r}")

    @property
    def folds(self) -> int:
        return sum(1 + c.multiplicity for c in self.charts)


@dataclass(frozen=True)
class FieldSample:
    q1: complex
    q2: complex


def _jet_power(chart: SpectralChart) -> int:
    """p in lambda + eps^p: rogue charts perturb by eps^2, the others by
    eps, so derivative m is jet coefficient p*m."""
    return 2 if isinstance(chart, RogueChart) else 1


@lru_cache(maxsize=None)
def _power_jets(lam: complex, order: int, power: int, n_folds: int):
    """lambda^m as jets for every exponent the column ladder uses."""
    one = Jet.constant(1.0, order)
    lam_jet = Jet.variable(lam, order, power)
    pows = {0: one, 1: lam_jet}
    for m in range(2, n_folds + 1):
        pows[m] = jet_mul(pows[m - 1], lam_jet)
    inv = jet_div(one, lam_jet)
    pows[-1] = inv
    for m in range(-2, -n_folds - 1, -1):
        pows[m] = jet_mul(pows[m + 1], inv)
    return pows


def assemble_system(config: DtConfig, triples):
    """Build (Omega_1, r) from per-chart eigenfunction jets.

    Column ladder: phi1 columns at lambda exponents N, N-2, ..., -(N-2) and
    (phi2, phi3) pairs at N-1, N-3, ..., -(N-1), interleaved in descending
    order.  The replacement vector r has, on every row, -mu^-N times the
    row's first component, mu being that row's eigenvalue.

    When a chart has phi2 == phi3 coefficientwise, its second companion
    rows are replaced by (comp3 - comp2) / phi1*, which collapses to pure
    conjugated lambda powers.  That row combination rescales every
    determinant by the same triangular factor (and r with Omega_1), so
    both ratios are unchanged, while the spurious rank drop at nodes of
    phi1 (the center of a rogue wave, where the faithful rows make 0/0)
    disappears.
    """
    charts = config.charts
    if len(triples) != len(charts):
        raise ConfigError(
            f"{len(charts)} charts but {len(triples)} eigenfunction triples")
    n = config.folds
    dim = 3 * n
    rows: list[list[complex]] = []
    repl: list[complex] = []
    for chart, triple in zip(charts, triples):
        power = _jet_power(chart)
        need = power * chart.multiplicity
        order = triple.phi1.order
        if triple.phi2.order != order or triple.phi3.order != order:
            raise ConfigError("eigenfunction components have mixed jet orders")
        if order < need:
            raise ConfigError(
                f"chart at lambda={chart.lam!r} needs jet order >= {need}, "
                f"got {order}")
        pows = _power_jets(chart.lam, order, power, n)
        # products lambda^m * phi_j, reused by every derivative row; base
        # rows consume one parity of m, companion rows the other
        p1 = {m: jet_mul(pows[m], triple.phi1) for m in range(-n, n + 1)}
        p2 = {m: jet_mul(pows[m], triple.phi2) for m in range(-n, n + 1)}
        paired = triple.phi2.coeffs == triple.phi3.coeffs
        p3 = p2 if paired else {m: jet_mul(pows[m], triple.phi3)
                                for m in range(-n, n + 1)}
        for deriv in range(chart.multiplicity + 1):
            c = deriv * power
            base = [0j] * dim
            comp2 = [0j] * dim
            comp3 = [0j] * dim
            for k in range(n):
                m1 = n - 2 * k
                m23 = n - 1 - 2 * k
                base[3 * k] = p1[m1].coeffs[c]
                base[3 * k + 1] = p2[m23].coeffs[c]
                base[3 * k + 2] = p3[m23].coeffs[c]
                comp2[3 * k] = -p2[m1].coeffs[c].conjugate()
                comp2[3 * k + 1] = p1[m23].coeffs[c].conjugate()
                if paired:
                    comp3[3 * k + 1] = -pows[m23].coeffs[c].conjugate()
                    comp3[3 * k + 2] = pows[m23].coeffs[c].conjugate()
                else:
                    comp3[3 * k] = -p3[m1].coeffs[c].conjugate()
                    comp3[3 * k + 2] = p1[m23].coeffs[c].conjugate()
            rows.extend((base, comp2, comp3))
            repl.append(-p1[-n].coeffs[c])
            repl.append(p2[-n].coeffs[c].conjugate())
            repl.append(0j if paired else p3[-n].coeffs[c].conjugate())
    return SquareMatrix(rows), repl


def check_compat(background: SeedBackground, config: DtConfig):
    for chart in config.charts:
        if not isinstance(chart, ZeroSeedChart):
            _plane_wave(background)
        elif not isinstance(background, ZeroBackground):
            raise ConfigError("zero-seed charts require the zero background")


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

    Seed and grid values are JSON numbers.  A chart's other keys are its
    class's field names (h1, h2, l1-l3, shifts, multiplicity), complex
    values [re, im] pairs; "lam": "critical" is the root of S on the seed.
    """
    if not isinstance(spec, dict) or set(spec) != _SPEC_KEYS:
        raise ConfigError(f"a run spec has the keys {sorted(_SPEC_KEYS)}")
    background = seed_from_json(spec["seed"])
    charts = []
    for chart in spec["charts"]:
        kind = chart.get("kind") if isinstance(chart, dict) else None
        if kind not in CHART_KINDS:
            raise ConfigError(f"chart kind must be one of "
                              f"{sorted(CHART_KINDS)}, got {kind!r}")
        values = {k: v for k, v in chart.items() if k != "kind"}
        unknown = set(values) - {f.name for f in fields(CHART_KINDS[kind])}
        if unknown:
            raise ConfigError(f"unknown {kind} chart keys: {sorted(unknown)}")
        for key in ("lam", "h1", "h2"):
            if isinstance(values.get(key), (list, tuple)):
                values[key] = complex(*values[key])
        if values.get("lam") == "critical":
            seed = _plane_wave(background)
            values["lam"] = critical_lambda(seed.a1, seed.d1)
        charts.append(CHART_KINDS[kind](**values))
    config = DtConfig(charts)
    check_compat(background, config)
    return (background, config, profile_from_json(spec["profile"]),
            grid_from_json(spec["grid"]))


def build_triple(chart: SpectralChart, background: SeedBackground,
                 profile: DeformationProfile, point) -> EigenTriple:
    order = _jet_power(chart) * chart.multiplicity
    if isinstance(chart, ZeroSeedChart):
        return zero_seed_eigenfunction(chart, profile, point, order)
    if isinstance(chart, BreatherChart):
        return breather_eigenfunction(chart, background, profile, point,
                                      order)
    return rogue_eigenfunction_jet(chart, background, point, order)


def evaluate_solution(background: SeedBackground, config: DtConfig,
                      profile: DeformationProfile, point) -> FieldSample:
    """The transformed fields (q1[N], q2[N]) at one space-time point.

    Raises SingularPointError where the eigenfunction jets overflow,
    Omega_1 has a zero pivot, an entry or the solution is not finite, or
    the refined solve does not converge: the point is then a gap, not a
    value.
    """
    check_compat(background, config)
    try:
        triples = [build_triple(chart, background, profile, point)
                   for chart in config.charts]
    except OverflowError:  # jet magnitudes beyond the double range
        raise SingularPointError(
            f"eigenfunction jets overflow at point {point!r}") from None
    omega1, r = assemble_system(config, triples)
    z = solve(omega1, r)
    q1b, q2b = background_field(background, point)
    q1 = q1b + z[-2]
    q2 = q2b + z[-1]
    if not (cmath.isfinite(q1) and cmath.isfinite(q2)):
        raise SingularPointError(
            f"non-finite field value at point {point!r}")
    return FieldSample(q1, q2)


def solution_sampler(background: SeedBackground, config: DtConfig,
                     profile: DeformationProfile):
    """Point -> FieldSample closure for the verification and search tools."""
    def sampler(point) -> FieldSample:
        return evaluate_solution(background, config, profile, point)
    return sampler
