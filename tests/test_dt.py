"""Omega-system assembly and transformed-field evaluation."""

import math
import random

import numpy as np
import pytest

from flwave import (
    BreatherChart,
    ConfigError,
    DeformationProfile,
    DtConfig,
    GridSpec,
    PlaneWaveSeed,
    RogueChart,
    SquareMatrix,
    ZeroBackground,
    ZeroSeedChart,
    background_field,
    breather_eigenfunction,
    closed_form_rw1,
    critical_lambda,
    det,
    evaluate_solution,
    plane_wave_field,
    solution_sampler,
)
from flwave.cli import SCENARIOS
from flwave.dt_engine import (_assemble, _jet_power, _layout, evaluate_points,
                              spec_from_json)
from flwave.errors import ConfigError, SingularPointError
from flwave.numerics import solve_stack
from flwave.spectral import _one_point, chart_jets

SEED_B = PlaneWaveSeed(-1, -1, -1, -2, 1, 1)
SEED_R = PlaneWaveSeed(-0.5, -0.5, -1, -1, 1, 1)
LAM_CRIT = critical_lambda(-0.5, 1.0)
LIN = DeformationProfile.LINEAR


def point_jets(config, background, point):
    """Each chart's eigenfunction jets at one point, as the engine builds
    them: (phi1, phi2, phi3) arrays of shape (order + 1, 1)."""
    return [chart_jets(c, background, LIN, *_one_point(point),
                       _jet_power(c) * c.multiplicity)
            for c in config.charts]


def closed_breather(chart, seed, profile, point):
    """Cofactor expansion of the one-fold ratio: an independent closed form.

    det O1 = psi1* (lam |psi1|^2 + lam* (|psi2|^2 + |psi3|^2)) and
    det O2 = |psi1|^2 psi2* (lam/lam* - lam*/lam), so the update is a
    single rational expression in the eigenfunction components.
    """
    trip = breather_eigenfunction(chart, seed, profile, point, 0)
    p1, p2, p3 = (trip.phi1.coeffs[0], trip.phi2.coeffs[0],
                  trip.phi3.coeffs[0])
    scale = max(abs(p1), abs(p2), abs(p3))
    p1, p2, p3 = p1 / scale, p2 / scale, p3 / scale
    lam = chart.lam
    den = lam * abs(p1) ** 2 + lam.conjugate() * (abs(p2) ** 2
                                                  + abs(p3) ** 2)
    ratio = (lam / lam.conjugate() - lam.conjugate() / lam) \
        * p1 * p2.conjugate() / den
    return plane_wave_field(seed, point)[0] + ratio


# -- system assembly ---------------------------------------------------------


def test_one_fold_matrix_structure():
    lam = 0.7 + 0.3j
    p1, p2, p3 = 1.1 - 0.4j, 0.6 + 0.9j, -0.3 + 0.2j
    config = DtConfig((BreatherChart(lam, 1, 1, 1, 0j, 0j),))
    phis = [tuple(np.array([[p]]) for p in (p1, p2, p3))]
    omega1, r = (m[0] for m in _assemble(config, phis))
    lc = lam.conjugate()
    want1 = [
        [lam * p1, p2, p3],
        [-lc * p2.conjugate(), p1.conjugate(), 0],
        [-lc * p3.conjugate(), 0, p1.conjugate()],
    ]
    for i in range(3):
        for j in range(3):
            assert abs(omega1[i][j] - want1[i][j]) < 1e-15
    repl = [-p1 / lam, p2.conjugate() / lc, p3.conjugate() / lc]
    for i in range(3):
        assert abs(r[i] - repl[i]) < 1e-15


def test_solve_entries_are_the_determinant_ratios():
    # Cramer's rule: the last two entries of z with Omega_1 z = r are
    # det Omega_2 / det Omega_1 and det Omega_3 / det Omega_1, Omega_2 and
    # Omega_3 being Omega_1 with column 3N-2 or 3N-1 replaced by r; phi3
    # as a copy of phi2 keeps the 3N system of distinct phi3 rows
    config = DtConfig((RogueChart(LAM_CRIT, multiplicity=1),
                       BreatherChart(0.5 + 0.5j, 0, 1, 1)))
    point = (0.7, -1.3, 0.2)
    phis = point_jets(config, SEED_R, point)
    omega1, r = _assemble(config, [(p1, p2, p2.copy()) for p1, p2, _ in phis])
    n = omega1.shape[-1]
    assert n == 3 * config.folds and r.shape == (1, n)
    z, why = solve_stack(omega1, r)
    assert why[0] == 0
    d1 = det(SquareMatrix(omega1[0].tolist()))
    # both charts are paired: the engine's 2N system has one unknown for
    # the two ratios, its last
    u, why = solve_stack(*_assemble(config, phis))
    assert why[0] == 0 and u.shape == (1, 2 * config.folds)
    for col in (n - 2, n - 1):
        rows = omega1[0].tolist()
        for i in range(n):
            rows[i][col] = r[0, i]
        want = det(SquareMatrix(rows)) / d1
        assert abs(z[0, col] - want) < 1e-10 * max(1.0, abs(want))
        assert abs(u[0, -1] - want) < 1e-10 * max(1.0, abs(want))


def test_omega1_generically_nonsingular():
    rng = random.Random(62)
    for _ in range(100):
        lam = complex(rng.uniform(0.3, 1.2), rng.uniform(0.3, 1.2))
        h1 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        config = DtConfig((ZeroSeedChart(lam, h1=h1),))
        point = tuple(rng.uniform(-1, 1) for _ in range(3))
        omega1, _ = _assemble(config, point_jets(config, ZeroBackground(),
                                                 point))
        assert abs(det(SquareMatrix(omega1[0].tolist()))) > 1e-12


# the fully paired panels, as test_paired_charts_return_phi3_as_phi2 lists
# them: every chart's phi3 is its phi2
PAIRED_PANELS = [
    n for n in sorted(SCENARIOS) if n[:4] in ("fig1", "fig3", "fig4")
    or n in ("fig5a", "fig5b", "fig6a", "fig6b", "fig6c")]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_layout_is_reduced_exactly_when_every_chart_is_paired(name):
    s = SCENARIOS[name]
    n = s.charts.folds
    paired = tuple(phi3 is phi2 for _, phi2, phi3 in
                   point_jets(s.charts, s.background, (0.3, -0.2, 0.1)))
    dim = 2 * n if name in PAIRED_PANELS else 3 * n
    assert all(paired) == (name in PAIRED_PANELS)
    for table in _layout(s.charts, paired):
        assert table.shape == (dim, dim + 1)


@pytest.mark.parametrize("name", PAIRED_PANELS)
def test_paired_panels_give_bit_equal_ratios(name):
    s = SCENARIOS[name]
    g = s.grid
    spec = GridSpec(g.x_min, g.x_max, g.y_min, g.y_max, 41, 41, g.t)
    points = [(x, y, g.t) for y in spec.ys() for x in spec.xs()]
    q1, q2, _ = evaluate_points(s.background, s.charts, s.profile, points)
    q1b, q2b = background_field(s.background, np.array(points).T)
    d1, d2 = q1 - q1b, q2 - q2b
    assert d1.tobytes() == d2.tobytes()


def test_gauge_invariance_of_determinant_ratio():
    chart = BreatherChart(0.5 + 0.5j, 1, 1, 1, 1 + 1j, -1 - 1j)
    config = DtConfig((chart,))
    rng = random.Random(63)
    for _ in range(5):
        point = tuple(rng.uniform(-2, 2) for _ in range(3))
        phis = point_jets(config, SEED_B, point)
        gauge = complex(rng.uniform(0.2, 3), rng.uniform(-2, 2))
        scaled = [tuple(gauge * p for p in phi) for phi in phis]
        ra = solve_stack(*_assemble(config, phis))[0][0, 1]
        rb = solve_stack(*_assemble(config, scaled))[0][0, 1]
        assert abs(ra - rb) < 1e-10 * max(1.0, abs(ra))


# -- configuration validation ------------------------------------------------


def test_config_rejects_duplicate_lambda():
    with pytest.raises(ConfigError):
        DtConfig((ZeroSeedChart(1 + 1j), ZeroSeedChart(1 + 1j)))


@pytest.mark.parametrize("charts", [
    (ZeroSeedChart(1 + 1j), ZeroSeedChart(-1 - 1j)),
    (BreatherChart(0.5 + 0.5j), BreatherChart(-0.5 - 0.5j)),
    (RogueChart(LAM_CRIT), ZeroSeedChart(2j), RogueChart(-LAM_CRIT)),
])
def test_config_rejects_opposite_lambdas(charts):
    # rows at -lambda are +- the rows at lambda: Omega_1 is singular, and
    # a grid of such charts read ZERO_PIVOT gaps and noise as values
    j = len(charts) - 1
    with pytest.raises(ConfigError, match=f"charts 0 and {j} have opposite"):
        DtConfig(charts)
    DtConfig((charts[0], type(charts[-1])(-charts[0].lam * (1 + 1e-9))))


def test_config_compares_lambdas_whose_distance_overflows():
    # each modulus is finite, so each chart stands; their distance is not
    config = DtConfig((ZeroSeedChart(1.3e308), ZeroSeedChart(1.3e308j)))
    assert config.folds == 2
    with pytest.raises(ConfigError, match="chart lambda"):
        ZeroSeedChart(1.5e308 + 1.5e308j)


def test_config_rejects_excess_folds():
    charts = tuple(ZeroSeedChart(complex(1, k)) for k in range(1, 6))
    with pytest.raises(ConfigError):
        DtConfig(charts)


def test_config_requires_charts():
    with pytest.raises(ConfigError):
        DtConfig(())


def test_background_chart_compatibility():
    zero_cfg = DtConfig((ZeroSeedChart(1 + 1j, h1=1 + 1j),))
    with pytest.raises(ConfigError):
        evaluate_solution(SEED_B, zero_cfg, LIN, (0, 0, 0))
    wave_cfg = DtConfig((BreatherChart(0.5 + 0.5j, 0, 1, 1, 0j, 0j),))
    with pytest.raises(ConfigError):
        evaluate_solution(ZeroBackground(), wave_cfg, LIN, (0, 0, 0))


# -- deformed solitons -------------------------------------------------------


def test_soliton_decays_and_has_one_ridge():
    cfg = DtConfig((ZeroSeedChart(1 + 1j, h1=1 + 1j),))
    sam = solution_sampler(ZeroBackground(), cfg, LIN)
    assert abs(sam((30, 0, 0)).q1) < 1e-6
    assert abs(sam((-30, 0, 0)).q1) < 1e-6
    xs = np.linspace(-30, 30, 241)
    vals = [abs(sam((x, 0, 0)).q1) for x in xs]
    peaks = [i for i in range(1, 240)
             if vals[i] > vals[i - 1] and vals[i] > vals[i + 1]
             and vals[i] > 1e-3]
    assert len(peaks) == 1


def test_soliton_crest_magnitude():
    # |q1| max = |lam^2 - lam*^2| / (|lam|^2 min|e^u lam + 2 e^-u lam*|)
    # collapses to 1/sqrt(2) at lam = 1+i
    cfg = DtConfig((ZeroSeedChart(1 + 1j, h1=1 + 1j),))
    sam = solution_sampler(ZeroBackground(), cfg, LIN)
    xs = np.linspace(-1.0, 1.0, 801)
    crest = max(abs(sam((x, 0, 0)).q1) for x in xs)
    assert abs(crest - 2 ** -0.5) < 1e-4


def test_deformation_profile_moves_the_ridge():
    # same chart, different profile: the ridge midline shifts with f(y+t)
    cfg = DtConfig((ZeroSeedChart(1 + 1j, h1=1 + 1j),))
    lin = solution_sampler(ZeroBackground(), cfg, LIN)
    sine = solution_sampler(ZeroBackground(), cfg, DeformationProfile.SINE)
    y = 3.0
    xs = np.linspace(-12, 12, 481)
    ridge_lin = xs[int(np.argmax([abs(lin((x, y, 0)).q1) for x in xs]))]
    ridge_sin = xs[int(np.argmax([abs(sine((x, y, 0)).q1) for x in xs]))]
    assert abs(ridge_lin - ridge_sin) > 0.5


# -- positons ----------------------------------------------------------------


def test_positon_splits_into_two_ridges_far_out():
    from flwave import FieldGrid, GridSpec, count_local_maxima
    cfg = DtConfig((ZeroSeedChart(1 + 1j, h1=1 + 1j, multiplicity=1),))
    sam = solution_sampler(ZeroBackground(), cfg, LIN)
    for y in (20.0, -20.0):
        xs = np.linspace(-16, 16, 321)
        vals = np.array([sam((x, y, 0.0)).q1 for x in xs])
        # embed the transect with a zero floor so the grid detector sees
        # exactly the transect's own maxima
        q1 = np.zeros((3, len(xs)), dtype=complex)
        q1[1, :] = vals
        spec = GridSpec(xs[0], xs[-1], y - 0.1, y + 0.1, len(xs), 3, 0.0)
        grid = FieldGrid(spec=spec, q1=q1, q2=q1.copy(),
                         mask=np.zeros((3, len(xs)), dtype=bool))
        assert count_local_maxima(grid, 0.1) == 2


def test_positon_peak_magnitude():
    from flwave import GridSpec, peak_search
    cfg = DtConfig((ZeroSeedChart(1 + 1j, h1=1 + 1j, multiplicity=1),))
    sam = solution_sampler(ZeroBackground(), cfg, LIN)
    _, mag = peak_search(sam, GridSpec(-4, 4, -4, 4, 33, 33, 0.0))
    assert abs(mag - 2 ** 0.5) < 1e-3


# -- breathers ---------------------------------------------------------------


def test_one_fold_breather_matches_closed_ratio():
    charts = [
        BreatherChart(0.5 + 0.5j, 0, 1, 1, 1 + 1j, -1 - 1j),
        BreatherChart(0.5 + 0.5j, 1, 1, 1, 1 + 1j, 1 + 1j),
        BreatherChart(0.4 + 0.7j, 1, 0.5, 2, 0.3 - 0.2j, 0.1 + 0.4j),
    ]
    rng = random.Random(64)
    for chart in charts:
        cfg = DtConfig((chart,))
        for _ in range(8):
            point = tuple(rng.uniform(-3, 3) for _ in range(3))
            got = evaluate_solution(SEED_B, cfg, LIN, point).q1
            want = closed_breather(chart, SEED_B, LIN, point)
            assert abs(got - want) < 1e-10 * max(1.0, abs(want))


def test_breather_crest_magnitude():
    from flwave import GridSpec, peak_search
    cfg = DtConfig((BreatherChart(0.5 + 0.5j, 0, 1, 1, 0j, 0j),))
    sam = solution_sampler(SEED_B, cfg, LIN)
    _, mag = peak_search(sam, GridSpec(-8, 8, -8, 8, 33, 33, 0.0))
    assert abs(mag - (1 + 2 ** 0.5)) < 1e-3


def test_breather_amplitude_bound():
    # |q1[1]| <= d1 + 2 for every one-fold chart on this background
    rng = random.Random(65)
    chart = BreatherChart(0.5 + 0.5j, 1, 1, 1, 1 + 1j, 1 + 1j)
    cfg = DtConfig((chart,))
    for _ in range(30):
        point = (rng.uniform(-5, 5), rng.uniform(-5, 5), 0.0)
        sample = evaluate_solution(SEED_B, cfg, LIN, point)
        assert abs(sample.q1) <= 3.0 + 1e-9


# -- rogue waves -------------------------------------------------------------


def test_one_fold_rogue_matches_printed_closed_form():
    cfg = DtConfig((RogueChart(LAM_CRIT),))
    rng = random.Random(66)
    for _ in range(10):
        point = tuple(rng.uniform(-4, 4) for _ in range(3))
        got = evaluate_solution(SEED_R, cfg, LIN, point)
        want = closed_form_rw1(point)
        assert abs(got.q1 - want) < 1e-8
        assert abs(got.q2 - want) < 1e-8


def test_component_symmetry():
    # l2 == l3, l1 == 0, and a fully symmetric background make the two
    # components indistinguishable; the l1 column enters the second and
    # third rows with opposite signs, so it must be off
    configs = [
        (SEED_R, DtConfig((RogueChart(LAM_CRIT),))),
        (SEED_R, DtConfig((BreatherChart(0.5 + 0.5j, 0, 1, 1,
                                         1 + 1j, -1 - 1j),))),
        (SEED_R, DtConfig((BreatherChart(0.4 + 0.7j, 0, 1, 1,
                                         1 + 1j, 1 + 1j),))),
    ]
    rng = random.Random(67)
    for seed, cfg in configs:
        for _ in range(8):
            point = tuple(rng.uniform(-3, 3) for _ in range(3))
            sample = evaluate_solution(seed, cfg, LIN, point)
            assert abs(sample.q1 - sample.q2) < 1e-12


def test_y_breather_swaps_components_under_l1_negation():
    # l1 -> -l1 exchanges the roles of q1 and q2 on a symmetric background
    plus = DtConfig((BreatherChart(0.5 + 0.5j, 1, 1, 1, 1 + 1j, 1 + 1j),))
    minus = DtConfig((BreatherChart(0.5 + 0.5j, -1, 1, 1, 1 + 1j, 1 + 1j),))
    rng = random.Random(68)
    for _ in range(6):
        point = tuple(rng.uniform(-3, 3) for _ in range(3))
        sp = evaluate_solution(SEED_R, plus, LIN, point)
        sm = evaluate_solution(SEED_R, minus, LIN, point)
        assert abs(sp.q1 - sm.q2) < 1e-12
        assert abs(sp.q2 - sm.q1) < 1e-12


# -- failure surfaces --------------------------------------------------------


def test_singular_point_raises():
    # far out on the cubic-profile wing the determinant rows span more
    # dynamic range than doubles hold; the sample must flag, not lie
    chart = BreatherChart(0.5 + 0.5j, 1, 1, 1, 1 + 1j, 1 + 1j)
    cfg = DtConfig((chart,))
    with pytest.raises(SingularPointError):
        evaluate_solution(SEED_B, cfg, DeformationProfile.CUBIC,
                          (-14.0, -10.8, 2.0))


def test_exponent_overflow_raises():
    chart = BreatherChart(0.5 + 0.5j, 1, 1, 1, 1 + 1j, 1 + 1j)
    cfg = DtConfig((chart,))
    with pytest.raises(SingularPointError, match="exponential overflows"):
        evaluate_solution(SEED_B, cfg, DeformationProfile.CUBIC,
                          (0.0, -12.0, 2.0))


@pytest.mark.parametrize("chart,match", [
    ({"kind": "positon", "lam": [1, 1]}, "chart kind must be one of"),
    ({"kind": "zero", "lam": [1, 1], "l1": 0.0},
     r"unknown zero chart keys: \['l1'\]"),
])
def test_spec_rejects_unknown_chart_kind_and_key(chart, match):
    spec = {"seed": "zero", "profile": "linear", "charts": [chart],
            "grid": {"x": [-1, 1, 3], "y": [-1, 1, 3]}}
    with pytest.raises(ConfigError, match=match):
        spec_from_json(spec)


@pytest.mark.parametrize("edit,match", [
    ({"profile": None}, r"run spec has the keys \[.*'profile'"),
    ({"charts": {"kind": "zero", "lam": [1, 1]}}, "charts must be a list"),
    ({"grid": [-1, 1, 3]}, "grid must be an object"),
])
def test_spec_rejects_a_missing_key_and_values_of_the_wrong_type(edit, match):
    spec = {"seed": "zero", "profile": "linear",
            "charts": [{"kind": "zero", "lam": [1, 1]}],
            "grid": {"x": [-1, 1, 3], "y": [-1, 1, 3]}}
    spec.update(edit)
    spec = {k: v for k, v in spec.items() if v is not None}
    with pytest.raises(ConfigError, match=match):
        spec_from_json(spec)


def test_spec_critical_lambda_is_the_root_of_S_on_its_seed():
    seed = {"a1": -0.5, "a2": -0.5, "b1": -1, "b2": -1, "d1": 1, "d2": 1}
    spec = {"seed": seed, "profile": "linear",
            "grid": {"x": [-1, 1, 3], "y": [-1, 1, 3]},
            "charts": [{"kind": "rogue", "lam": "critical"},
                       {"kind": "breather", "lam": [0.5, 0.5], "h1": [1, 2]}]}
    background, config, _, _ = spec_from_json(spec)
    assert background == SEED_R
    assert config == DtConfig((RogueChart(LAM_CRIT),
                               BreatherChart(0.5 + 0.5j, h1=1 + 2j)))


_SEED_R_JSON = {"a1": -0.5, "a2": -0.5, "b1": -1, "b2": -1, "d1": 1, "d2": 1}


@pytest.mark.parametrize("chart,match", [
    ({"kind": "zero", "lam": [1, 2, 3]}, r"chart 1 lam must be a \[re, im\]"),
    ({"kind": "zero", "lam": "1+1j"}, r"chart 1 lam must be a \[re, im\]"),
    ({"kind": "zero", "h1": [1, 1]}, "chart 1 needs lam"),
    ({"kind": "zero", "lam": [1, 1], "multiplicity": "1"},
     "chart 1 multiplicity must be a number"),
    ({"kind": "zero", "lam": [1, 1], "multiplicity": 1.5},
     "chart 1 multiplicity must be a whole number"),
    ({"kind": "zero", "lam": [1, 1], "h1": 2}, r"chart 1 h1 must be a \[re"),
    ({"kind": "breather", "lam": [0.5, 0.5], "h2": ["a", 1]},
     "chart 1 h2 must be a number"),
    ({"kind": "breather", "lam": [0.5, 0.5], "l1": True},
     "chart 1 l1 must be a number"),
    ({"kind": "breather", "lam": [0.5, 0.5], "l3": [1]},
     "chart 1 l3 must be a number"),
    ({"kind": "rogue", "lam": "critical", "shifts": 5},
     "chart 1 shifts must be a list"),
    ({"kind": "rogue", "lam": "critical", "shifts": [[1, 2, 3]]},
     r"chart 1 shifts 0 must be a \[re, im\]"),
])
def test_spec_rejects_bad_chart_values_naming_chart_and_key(chart, match):
    zero = chart["kind"] == "zero"
    first = {"kind": "zero", "lam": [2, 1]} if zero \
        else {"kind": "breather", "lam": [0.7, 0.4]}
    spec = {"seed": "zero" if zero else _SEED_R_JSON, "profile": "linear",
            "charts": [first, chart],
            "grid": {"x": [-1, 1, 3], "y": [-1, 1, 3]}}
    with pytest.raises(ConfigError, match=match):
        spec_from_json(spec)


def test_spec_takes_whole_float_multiplicities_and_pair_tuples():
    spec = {"seed": "zero", "profile": "linear",
            "grid": {"x": [-1, 1, 3], "y": [-1, 1, 3]},
            "charts": [{"kind": "zero", "lam": (1, 1), "multiplicity": 1.0}]}
    _, config, _, _ = spec_from_json(spec)
    assert config == DtConfig((ZeroSeedChart(1 + 1j, multiplicity=1),))
