"""The batched engine: a node's value does not depend on its chunk, gaps
stay inside their own system of a stack, the refined solve meets its
error bound or marks the system a gap, the stacked kernels agree with the
list-based jet arithmetic, and the callers batch their points."""

import dataclasses
import math
import random
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from flwave import (DeformationProfile, DtConfig, FieldSample, GridSpec,
                    PlaneWaveSeed, RogueChart, SingularPointError,
                    ZeroBackground, ZeroSeedChart, background_field,
                    closed_form_rw1, critical_lambda, dt_engine,
                    evaluate_grid, numerics, pde_residual, peak_search,
                    plane_wave_field, solution_sampler, verify,
                    zero_seed_eigenfunction)
from flwave.cli import SCENARIOS
from flwave.dt_engine import chunk_points, evaluate_points
from flwave.numerics import (ILL_CONDITIONED, INVERSE_RHO, MAX_RHO,
                             NO_CONVERGENCE, NON_FINITE, ZERO_PIVOT, Jet,
                             _equilibrate, _inf_norm, _residual, _split,
                             jet_mul, series_mul, solve_stack)
from flwave.verify import _sample_many

SEED_R = PlaneWaveSeed(-0.5, -0.5, -1, -1, 1, 1)
LAM_CRIT = critical_lambda(-0.5, 1.0)
LIN = DeformationProfile.LINEAR
PROBE_FAMILIES = ("fig1a", "fig1e", "fig2a", "figYa", "fig3a", "fig3d",
                  "fig4a", "fig5a", "fig6a")
SOLITON = DtConfig((ZeroSeedChart(1 + 1j, h1=1 + 1j),))
ROGUE = DtConfig((RogueChart(LAM_CRIT),))


def _one_at_a_time(sampler, points):
    q = np.full((2, len(points)), complex("nan"))
    for k, point in enumerate(points):
        try:
            s = sampler(point)
        except SingularPointError:
            continue
        q[:, k] = s.q1, s.q2
    return q


# -- a node's value does not depend on its chunk ------------------------------


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_grid_in_one_call_equals_point_by_point(name):
    s = SCENARIOS[name]
    spec = dataclasses.replace(s.grid, nx=9, ny=9)
    grid = evaluate_grid(s.background, s.charts, s.profile, spec)
    points = [(x, y, spec.t) for y in spec.ys() for x in spec.xs()]
    q1, q2 = _one_at_a_time(
        solution_sampler(s.background, s.charts, s.profile), points)
    assert grid.q1.tobytes() == q1.reshape(9, 9).tobytes()
    assert grid.q2.tobytes() == q2.reshape(9, 9).tobytes()
    assert grid.mask.tobytes() == np.isnan(q1).reshape(9, 9).tobytes()


@pytest.mark.parametrize("name", ("fig2a", "fig1e", "fig6f"))  # N = 1, 2, 3
def test_chunk_boundaries_do_not_move_values(name):
    s = SCENARIOS[name]
    g = s.grid
    rng = random.Random(5)
    points = [(rng.uniform(g.x_min, g.x_max), rng.uniform(g.y_min, g.y_max),
               g.t) for _ in range(chunk_points(s.charts) + 9)]
    q1, q2, _ = evaluate_points(s.background, s.charts, s.profile, points)
    # the same points, each landing at another place in its chunk
    shifted = evaluate_points(s.background, s.charts, s.profile,
                              points[7:] + points[:7])
    assert np.concatenate([q1[7:], q1[:7]]).tobytes() \
        == shifted[0].tobytes()
    assert np.concatenate([q2[7:], q2[:7]]).tobytes() \
        == shifted[1].tobytes()


def test_a_chunk_holds_a_fixed_count_of_omega_entries(monkeypatch):
    configs = [DtConfig((ZeroSeedChart(1 + 1j, multiplicity=n - 1),))
               for n in (1, 2, 3, 4)]
    assert [chunk_points(c) for c in configs] == [2304, 576, 256, 144]
    sizes = []
    chunk = dt_engine._evaluate_chunk

    def counted(background, config, profile, x, y, t):
        sizes.append(len(x))
        return chunk(background, config, profile, x, y, t)

    monkeypatch.setattr(dt_engine, "_evaluate_chunk", counted)
    for name, n, want in (("fig2a", 21, [441]),
                          ("fig6f", 15, [225])):
        s = SCENARIOS[name]
        sizes.clear()
        evaluate_grid(s.background, s.charts, s.profile,
                      dataclasses.replace(s.grid, nx=n, ny=n))
        assert sizes == want


@pytest.mark.parametrize("name,crest", [("fig3a", (1.0, -1.0)),
                                        ("fig3d", (-0.424, -1.520)),
                                        ("fig4a", (-2.129, -1.750))])
def test_peak_search_reports_the_sampler_value_at_its_point(name, crest):
    s = SCENARIOS[name]
    sampler = solution_sampler(s.background, s.charts, s.profile)
    rng = random.Random(name)
    for _ in range(2):
        cx = crest[0] + rng.uniform(-0.25, 0.25)
        cy = crest[1] + rng.uniform(-0.25, 0.25)
        region = GridSpec(cx - 0.6, cx + 0.6, cy - 0.6, cy + 0.6, 5, 5, 0.0)
        (x, y), value = peak_search(sampler, region)
        assert value == abs(sampler((x, y, 0.0)).q1)
        assert value >= abs(sampler((region.xs()[2], region.ys()[2],
                                     0.0)).q1)


# -- gaps stay inside their own system ----------------------------------------


def test_gaps_in_one_stack_leave_the_other_systems_alone():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((6, 3, 3)) + 1j * rng.standard_normal((6, 3, 3))
    b = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    a[1, 2] = a[1, 0] * 2.0  # exactly singular
    a[3, 1, 1] = np.inf  # a non-finite entry
    b[4, 0] = np.nan  # inf * 0, as an overflowed exponential leaves
    z, got = solve_stack(a, b)
    assert got.tolist() == [0, ZERO_PIVOT, 0, NON_FINITE, NON_FINITE, 0]
    assert np.isnan(z[[1, 3, 4]]).all()
    for p in (0, 2, 5):
        alone, w = solve_stack(a[p:p + 1], b[p:p + 1])
        assert w[0] == 0
        assert alone[0].tobytes() == z[p].tobytes()


def test_engine_masks_only_the_bad_nodes_of_a_chunk():
    # x = 400 overflows the soliton's exponentials; the rest are values
    points = [(0.3, 0.1, 0.0), (400.0, 0.0, 0.0), (-0.7, 0.2, 0.1),
              (-400.0, 1.0, 0.0), (1.1, -0.4, 0.0)]
    q1, q2, why = evaluate_points(ZeroBackground(), SOLITON, LIN, points)
    assert why.tolist() == [0, NON_FINITE, 0, NON_FINITE, 0]
    alone = _one_at_a_time(solution_sampler(ZeroBackground(), SOLITON, LIN),
                           points)
    assert q1.tobytes() == alone[0].tobytes()
    assert q2.tobytes() == alone[1].tobytes()
    # far out the rogue's jets leave the double range: a non-finite gap
    points = [(0.3, 0.1, 0.0), (1e308, 0.0, 0.0), (-0.7, 0.2, 0.1)]
    q1, _, why = evaluate_points(SEED_R, ROGUE, LIN, points)
    assert why.tolist() == [0, NON_FINITE, 0]
    assert np.isnan(q1[1]) and np.isfinite(q1[[0, 2]]).all()


def test_one_point_face_names_the_gap():
    with pytest.raises(SingularPointError, match="exponential overflows"):
        dt_engine.evaluate_solution(ZeroBackground(), SOLITON, LIN,
                                    (400.0, 0.0, 0.0))
    with pytest.raises(SingularPointError, match="non-finite"):
        dt_engine.evaluate_solution(SEED_R, ROGUE, LIN, (1e308, 0.0, 0.0))
    # far from the Y breather Omega_1 is too ill-conditioned, once rounded
    # to doubles, for its inverse to bound the error
    s = SCENARIOS["figYa"]
    _, _, why = evaluate_points(s.background, s.charts, s.profile,
                                [(-80.0, -80.0, 0.0)])
    assert why[0] == ILL_CONDITIONED
    with pytest.raises(SingularPointError, match="condition too large"):
        dt_engine.evaluate_solution(s.background, s.charts, s.profile,
                                    (-80.0, -80.0, 0.0))


def test_exp_finite_near_the_double_limit_is_a_value():
    # on fig1a's row y = t = 0 the soliton's exponent has real part 2x:
    # 709.2 and 709.6 still have a finite exp, and the field there is 0
    # like its neighbours'; at 710 exp overflows and the node is a gap
    s = SCENARIOS["fig1a"]
    points = [(354.6, 0.0, 0.0), (354.8, 0.0, 0.0), (355.0, 0.0, 0.0)]
    q1, _, why = evaluate_points(s.background, s.charts, s.profile, points)
    assert why.tolist() == [0, 0, NON_FINITE]
    assert abs(q1[0]) == abs(q1[1]) == 0.0
    with pytest.raises(SingularPointError, match="non-finite"):
        dt_engine.evaluate_solution(s.background, s.charts, s.profile,
                                    points[2])
    # the one-point face is as silent as evaluate_solution
    with warnings.catch_warnings(), \
            pytest.raises(SingularPointError, match="non-finite"):
        warnings.simplefilter("error")
        zero_seed_eigenfunction(s.charts.charts[0], s.profile,
                                (400.0, 0.0, 0.0), 0)


def test_far_field_nodes_are_masked_or_values():
    # over [-80, 80]^2 Omega_1 of the Y breather is singular once rounded
    # to doubles at hundreds of nodes; each must be a gap, never a value
    # past the breather's amplitude bound d1 + 2
    s = SCENARIOS["figYa"]
    grid = evaluate_grid(s.background, s.charts, s.profile,
                         GridSpec(-80, 80, -80, 80, 33, 33, 0.0))
    assert grid.singular_count > 0
    assert (grid.abs_q1[~grid.mask] <= 3.0 + 1e-9).all()


BREATHERS = ("fig2a", "fig2b", "fig2c", "fig2d", "figYa", "figYb", "figYc",
             "figYd", "figYe", "figYf", "figYg", "figYh")


def _far_frame(s, nodes=41):
    """nodes x nodes over a frame nine panel widths across."""
    g = s.grid
    cx, cy = (g.x_min + g.x_max) / 2, (g.y_min + g.y_max) / 2
    wx, wy = 4.5 * (g.x_max - g.x_min), 4.5 * (g.y_max - g.y_min)
    return GridSpec(cx - wx, cx + wx, cy - wy, cy + wy, nodes, nodes, g.t)


@pytest.mark.parametrize("name", BREATHERS)
def test_breather_far_field_is_masked_or_bounded(name):
    # the masks run from none (fig2a, fig2d) to 1476 of 1681 nodes
    # (fig2c), and the largest unmasked value is 0.80 of the bound (figYh)
    s = SCENARIOS[name]
    grid = evaluate_grid(s.background, s.charts, s.profile, _far_frame(s))
    assert (grid.abs_q1[~grid.mask] <= 3 * s.background.d1).all()


PLANE_WAVE_MULTI = [
    name for name in sorted(SCENARIOS)
    if not isinstance(SCENARIOS[name].background, ZeroBackground)
    and SCENARIOS[name].charts.folds >= 2]


@pytest.mark.parametrize("name", PLANE_WAVE_MULTI)
def test_multi_fold_far_field_is_masked_or_bounded(name):
    # an N-fold rogue wave peaks at (2N+1) d; the largest unmasked value
    # is 2.23 d (fig5c).  The nodes of fig5c, fig6d, fig6e and fig6f past
    # the bound (up to 4.2e31 d) have rho >= 1e3, and are ILL_CONDITIONED
    s = SCENARIOS[name]
    grid = evaluate_grid(s.background, s.charts, s.profile, _far_frame(s))
    bound = (2 * s.charts.folds + 1) * max(s.background.d1,
                                           s.background.d2)
    keep = ~grid.mask
    assert (grid.abs_q1[keep] <= bound).all()
    assert (grid.abs_q2[keep] <= bound).all()


# the Y breather's frames nine panel widths across hold every gap code
# but NO_CONVERGENCE; at 101 x 101, 31 of figYc's systems have a pivot
# whose reciprocal overflows, which leaves their inverse all NaN without
# a zero pivot: those are ILL_CONDITIONED
@pytest.mark.parametrize("name,nodes,counts", [
    ("figYc", 41, [1271, 41, 0, 107]),
    ("figYg", 41, [1271, 41, 0, 110]),
    ("figYc", 101, [7575, 254, 0, 640]),
])
def test_gap_codes_on_a_far_frame_follow_each_node_alone(monkeypatch, name,
                                                         nodes, counts):
    s = SCENARIOS[name]
    spec = _far_frame(s, nodes)
    points = [(x, y, spec.t) for y in spec.ys() for x in spec.xs()]
    stacks = []
    solve = dt_engine.solve_stack

    def recorded(a, b):
        stacks.append((a.copy(), b.copy()))
        return solve(a, b)

    with monkeypatch.context() as m:
        m.setattr(dt_engine, "solve_stack", recorded)
        q1, q2, why = evaluate_points(s.background, s.charts, s.profile,
                                      points)
    a, b = (np.concatenate(part) for part in zip(*stacks))
    assert [np.count_nonzero(why == c) for c in
            (NON_FINITE, ZERO_PIVOT, NO_CONVERGENCE, ILL_CONDITIONED)] \
        == counts
    finite = np.isfinite(a).all(axis=(1, 2)) & np.isfinite(b).all(axis=1)
    assert ((why == NON_FINITE) == ~finite).all()
    singular = np.zeros(len(a), bool)
    for p in finite.nonzero()[0]:
        try:
            np.linalg.inv(_equilibrate(a[p:p + 1])[0][0])
        except np.linalg.LinAlgError:
            singular[p] = True
    assert ((why == ZERO_PIVOT) == singular).all()
    ill = finite & ~singular & ~(_engine_rho(a) < MAX_RHO)
    assert ((why == ILL_CONDITIONED) == ill).all()
    others = np.random.default_rng(31).choice(
        (~singular).nonzero()[0], 100, replace=False)
    for p in np.concatenate([singular.nonzero()[0], others]):
        alone = evaluate_points(s.background, s.charts, s.profile,
                                [points[p]])
        assert (q1[p:p + 1].tobytes(), q2[p:p + 1].tobytes(), why[p]) \
            == (alone[0].tobytes(), alone[1].tobytes(), alone[2][0])


def test_an_empty_stack_is_solved_to_empty_arrays():
    for n in (1, 3, 9):
        z, why = solve_stack(np.empty((0, n, n), complex),
                             np.empty((0, n), complex))
        assert (z.shape, z.dtype, why.shape, why.dtype) \
            == ((0, n), complex, (0,), np.int8)
        inv, singular = numerics._inverse(np.empty((0, n, n), complex),
                                          np.empty((0, n, n), complex))
        assert inv.shape == (0, n, n) and singular.shape == (0,)


# -- stacked kernels (ports of the list-based helpers' tests) -----------------


def test_equilibration_is_an_exact_power_of_two_scaling():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 5, 5)) + 1j * rng.standard_normal((4, 5, 5))
    a *= 10.0 ** rng.integers(-200, 200, size=(4, 5, 1))
    scaled, row, col, finite = _equilibrate(a)
    assert finite.all()
    back = scaled * np.ldexp(1.0, row)[:, :, None] \
        * np.ldexp(1.0, col)[:, None, :]
    assert np.array_equal(back, a)
    mag = np.maximum(abs(scaled.real), abs(scaled.imag))
    assert ((mag.max(axis=1) >= 0.5) & (mag.max(axis=1) < 1)).all()


def _stack_with_one_singular_system(bad):
    rng = np.random.default_rng(13)
    a = rng.standard_normal((576, 3, 3)) \
        + 1j * rng.standard_normal((576, 3, 3))
    b = rng.standard_normal((576, 3)) + 1j * rng.standard_normal((576, 3))
    a[bad, 2] = a[bad, 0] * 2.0  # exactly singular
    return a, b


def _assert_found_in_one_call(calls, result, singular, bad, alone):
    # a bisection of the stack would take up to 2 ceil(log2 576) + 1
    # calls; LAPACK reports each system's zero pivot alone, so one does
    assert calls == [576]
    assert singular.nonzero()[0].tolist() == [bad]
    assert np.isnan(result[bad]).all()
    for p in range(576):
        if p != bad:
            assert alone(p).tobytes() == result[p].tobytes()


@pytest.mark.parametrize("bad", (0, 300, 575))
def test_one_singular_system_is_found_by_bisection(monkeypatch, bad):
    a, b = _stack_with_one_singular_system(bad)
    calls = []
    inverse = numerics._inverse

    def counted(a, out):
        calls.append(len(a))
        return inverse(a, out)

    monkeypatch.setattr(numerics, "_inverse", counted)
    z, why = solve_stack(a, b)
    assert why[bad] == ZERO_PIVOT

    def alone(p):
        z, w = solve_stack(a[p:p + 1], b[p:p + 1])
        assert w[0] == 0
        return z[0]

    _assert_found_in_one_call(calls, z, why != 0, bad, alone)


@pytest.mark.parametrize("bad", (0, 300, 575))
def test_one_singular_inverse_is_found_by_bisection(bad):
    # the gufunc under inv fills the singular system's inverse with NaN
    # and inverts the others
    a, _ = _stack_with_one_singular_system(bad)
    calls = []

    def counted(a, out):
        calls.append(len(a))
        return numerics._inverse(a, out)

    inv, singular = counted(a, np.empty_like(a))
    _assert_found_in_one_call(calls, inv, singular, bad,
                              lambda p: np.linalg.inv(a[p:p + 1])[0])


def test_a_pivot_whose_reciprocal_overflows_is_not_a_zero_pivot():
    # LU pivots 0.75, 0.5 and 4e-323: inv succeeds alone, but 1 / 4e-323
    # overflows and leaves the inverse all NaN; only the second system,
    # whose third row is the first's double, meets a zero pivot
    a = np.array([[[0, 0.5, 0.5], [0.75, 2e-323, 0], [0.75, 0, 2e-323]],
                  [[1, 2, 3], [0, 1, 1], [2, 4, 6]]], complex)
    with np.errstate(all="ignore"):
        inv = np.linalg.inv(a[0])
    assert np.isnan(inv).all()
    got, singular = numerics._inverse(a, np.empty_like(a))
    assert np.isnan(got).all() and singular.tolist() == [False, True]
    _, why = solve_stack(a, np.ones((2, 3), complex))
    assert why.tolist() == [ILL_CONDITIONED, ZERO_PIVOT]


def test_solve_stack_survives_entries_near_the_double_limit():
    huge = 1.5e308
    a = np.array([[[complex(huge, huge), 0], [0, 1]],
                  [[2, 1], [1, 3]]])
    b = np.array([[complex(huge, huge), 2], [3, 4]])
    z, why = solve_stack(a, b)
    assert why.tolist() == [0, 0]
    assert z[0].tolist() == [1, 2]


def test_ill_conditioned_system_is_solved_exactly_inside_a_stack():
    n = 8
    hilbert = [[1.0 / (i + j + 1) for j in range(n)] for i in range(n)]
    rng = np.random.default_rng(9)
    a = rng.standard_normal((3, n, n)) + 0j
    a[1] = hilbert
    b = np.ones((3, n), complex)
    z, why = solve_stack(a, b)
    assert (why == 0).all()
    want = _exact_solve([[Fraction(v) for v in r] for r in hilbert],
                        [Fraction(1)] * n)
    for got, w in zip(z[1], want):
        assert got.imag == 0.0
        assert abs(Fraction(got.real) - w) <= 2 ** -52 * abs(w)


# -- the refined solve's stopping rule and its verdict ------------------------


def _equilibrated_kappa(a):
    """||A||_inf ||inv(A)||_inf of each equilibrated system."""
    return np.array([np.linalg.norm(m, np.inf)
                     * np.linalg.norm(np.linalg.inv(m), np.inf)
                     for m in _equilibrate(a)[0]])


def _engine_rho(a):
    """rho = 8 n u kappa of each system, as solve_stack reads it: NaN where
    the inverse is not finite."""
    with np.errstate(all="ignore"):
        eq = _equilibrate(a)[0]
        inv, _ = numerics._inverse(eq, np.empty_like(eq))
        return 8 * a.shape[1] * 2.0 ** -53 * _inf_norm(eq) * _inf_norm(inv)


def _conditioned_stack(kappas, n=6, seed=17):
    """Systems U diag(s) V^H, U and V random unitary and s geometric from
    1 down, whose equilibrated kappa_inf is each kappa to within a factor 2;
    their rows scaled by powers of two, which equilibration undoes, and
    random right-hand sides."""
    rng = np.random.default_rng(seed)

    def unitary():
        q, _ = np.linalg.qr(rng.standard_normal((n, n))
                            + 1j * rng.standard_normal((n, n)))
        return q

    uv = [(unitary(), unitary()) for _ in kappas]
    spread = np.array(kappas, float)
    for _ in range(4):  # kappa_inf follows the spread of s nearly linearly
        a = np.array([u * np.geomspace(1.0, 1.0 / k, n) @ v.conj().T
                      for (u, v), k in zip(uv, spread)])
        spread *= kappas / _equilibrated_kappa(a)
    assert (abs(np.log2(_equilibrated_kappa(a) / kappas)) < 1).all()
    a *= np.ldexp(1.0, rng.integers(-30, 30, size=(len(kappas), n, 1)))
    b = rng.standard_normal((len(kappas), n)) \
        + 1j * rng.standard_normal((len(kappas), n))
    return a, b


def _assert_matches_oracle(z, a, b, systems):
    """Each system's z within 2^-50 max|z| of a 50-digit solve."""
    for p in systems:
        with mpmath.workdps(50):
            want = mpmath.lu_solve(
                mpmath.matrix([[mpmath.mpc(v) for v in row] for row in a[p]]),
                mpmath.matrix([mpmath.mpc(v) for v in b[p]]))
            scale = max(abs(w) for w in want)
            for got, w in zip(z[p], want):
                assert abs(mpmath.mpc(got) - w) <= 2 ** -50 * scale, p


def test_solve_stack_matches_the_oracle_from_kappa_1e1_to_1e12():
    kappas = np.repeat(10.0 ** np.arange(1, 13), 2)
    a, b = _conditioned_stack(kappas)
    z, why = solve_stack(a, b)
    assert (why == 0).all()
    _assert_matches_oracle(z, a, b, range(len(a)))


@pytest.mark.parametrize("seed", (17, 18, 19, 20))
def test_systems_past_kappa_1e11_are_values_or_named_gaps(seed):
    # each system is a value that meets the oracle, a gap that did not
    # converge (near kappa 1e14, rho about 0.4) or, exactly where rho is
    # not below MAX_RHO (from kappa 1e15), an ill-conditioned gap
    kappas = np.repeat(10.0 ** np.arange(11, 17), 2)
    a, b = _conditioned_stack(kappas, seed=seed)
    z, why = solve_stack(a, b)
    assert set(why.tolist()) <= {0, NO_CONVERGENCE, ILL_CONDITIONED}
    assert ((why == ILL_CONDITIONED) == ~(_engine_rho(a) < MAX_RHO)).all()
    assert (why[kappas <= 1e13] == 0).all()
    assert (why[kappas >= 1e15] == ILL_CONDITIONED).all()
    assert np.isnan(z[why != 0]).all()
    _assert_matches_oracle(z, a, b, (why == 0).nonzero()[0])


def test_systems_with_kappa_up_to_1e3_take_one_residual(monkeypatch):
    a, b = _conditioned_stack(np.geomspace(10.0, 750.0, 24))
    assert (_equilibrated_kappa(a) <= 1e3).all()
    residuals = []
    residual = numerics._residual

    def counted(a, b, x):
        residuals.append(len(b))
        return residual(a, b, x)

    monkeypatch.setattr(numerics, "_residual", counted)
    z, why = solve_stack(a, b)
    assert (why == 0).all()
    assert residuals == [len(a)]


def test_the_stop_rule_holds_for_an_inverse_as_poor_as_rho_allows(
        monkeypatch):
    # inv(A) replaced by (I + F) inv(A), ||F||_inf = rho / 4: each
    # correction then leaves about rho / 4 of the error, and the rule
    # must take a second one before z is within 2^-50 max|z|
    a, b = _conditioned_stack([5e7] * 4)
    inverse = numerics._inverse
    rng = np.random.default_rng(23)

    def poor(a, out):
        inv, singular = inverse(a, out)
        rho = 8 * a.shape[1] * 2.0 ** -53 * _inf_norm(a) * _inf_norm(inv)
        f = rng.standard_normal(inv.shape) \
            + 1j * rng.standard_normal(inv.shape)
        f *= (rho / 4 / abs(f).sum(axis=2).max(axis=1))[:, None, None]
        inv += np.einsum("pij,pjk->pik", f, inv)
        return inv, singular

    residuals = []
    residual = numerics._residual

    def counted(a, b, x):
        residuals.append(len(b))
        return residual(a, b, x)

    monkeypatch.setattr(numerics, "_inverse", poor)
    monkeypatch.setattr(numerics, "_residual", counted)
    z, why = solve_stack(a, b)
    assert (why == 0).all()
    assert residuals == [4, 4]
    _assert_matches_oracle(z, a, b, range(len(a)))


def test_a_system_above_the_threshold_refines_with_the_inverse(monkeypatch):
    a, b = _conditioned_stack([1e2] * 4 + [1e10] + [1e2] * 4)
    rho = _engine_rho(a)
    assert INVERSE_RHO <= rho[4] < MAX_RHO
    assert (np.delete(rho, 4) < INVERSE_RHO).all()
    residuals = []
    residual = numerics._residual

    def counted(a, b, x):
        residuals.append(len(b))
        return residual(a, b, x)

    monkeypatch.setattr(numerics, "_residual", counted)
    z, why = solve_stack(a, b)
    assert (why == 0).all()
    # with a slack of 1 it alone takes a second correction, or more
    assert residuals[0] == 9 and len(residuals) >= 2
    assert set(residuals[1:]) == {1}
    _assert_matches_oracle(z, a, b, range(len(a)))
    alone, _ = solve_stack(a[4:5], b[4:5])
    assert alone[0].tobytes() == z[4].tobytes()


def test_split_halves_multiply_exactly():
    rng = np.random.default_rng(11)
    v = rng.standard_normal(200) * 10.0 ** rng.integers(-30, 30, size=200)
    hi, lo = _split(v, np.empty_like(v), np.empty_like(v))
    assert np.array_equal(hi + lo, v)
    for h, lo_, w in zip(hi, lo, v[::-1]):
        wh, wl = _split(np.array([w]), np.empty(1), np.empty(1))
        for x, y in ((h, wh[0]), (h, wl[0]), (lo_, wh[0]), (lo_, wl[0])):
            assert Fraction(float(x * y)) \
                == Fraction(float(x)) * Fraction(float(y))


def test_residual_is_twice_working_precision_then_rounded():
    # a sum carried in twice the working precision, then rounded: error
    # <= eps |exact| + c eps^2 sum |terms|, c growing with the L = 2n + 1
    # terms of a row (4 L^3 holds for a TwoSum tree); near a solution the
    # second part is what remains
    rng = np.random.default_rng(12)
    n = 4
    a = rng.standard_normal((5, n, n)) + 1j * rng.standard_normal((5, n, n))
    b = rng.standard_normal((5, n)) + 1j * rng.standard_normal((5, n))
    x = np.linalg.solve(a, b[..., None])[..., 0]
    r = _residual(a, b, x)
    F = Fraction
    for p in range(5):
        for i in range(n):
            ar, ai = a[p, i].real, a[p, i].imag
            xr, xi = x[p].real, x[p].imag
            for got, bi, terms in (
                    (r[p, i].real, b[p, i].real,
                     [F(u) * F(v) for u, v in zip(ar, xr)]
                     + [-F(u) * F(v) for u, v in zip(ai, xi)]),
                    (r[p, i].imag, b[p, i].imag,
                     [F(u) * F(v) for u, v in zip(ar, xi)]
                     + [F(u) * F(v) for u, v in zip(ai, xr)])):
                exact = F(bi) - sum(terms)
                size = abs(F(bi)) + sum(abs(t) for t in terms)
                bound = 2 ** -52 * abs(exact) \
                    + 4 * (2 * n + 1) ** 3 * 2 ** -106 * size
                assert abs(F(got) - exact) <= bound


def test_series_mul_rounds_as_jet_mul_does():
    # the assembly's shapes, 2N + 1 = 7 static jets against (J, 1, K, P)
    # point jets, up to K = 7 (an N = 3 rogue chart's internal order) and
    # with enough points there to take two blocks; the last two point
    # jets end in inf and NaN, which no lower coefficient may see
    rng = random.Random(13)

    def jets(count, order, size):
        return [Jet([complex(rng.uniform(-size, size),
                             rng.uniform(-size, size))
                     for _ in range(order + 1)]) for _ in range(count)]

    for order, points in ((0, 4), (2, 4), (5, 4), (6, 50)):
        s = jets(7, order, 1)
        phi = [jets(points, order, 9) for _ in range(2)]
        cols = np.array([[pk.coeffs for pk in row] for row in phi])
        if order:
            cols[:, -2:, -1] = complex(math.inf, 0), complex(math.nan, 1)
        got = series_mul(np.array([si.coeffs for si in s]),
                         cols.transpose(0, 2, 1)[:, None])
        assert got.shape == (2, 7, order + 1, points)
        for a, row in enumerate(phi):
            for i, si in enumerate(s):
                for k, pk in enumerate(row):
                    want = list(jet_mul(si, pk).coeffs)
                    if order and k >= points - 2:
                        want, got_k = want[:-1], got[a, i, :-1, k]
                        assert np.isfinite(got_k).all()
                    else:
                        got_k = got[a, i, :, k]
                    assert got_k.tolist() == want


# -- the callers batch their points -------------------------------------------


def test_sampler_takes_many_points_in_one_call():
    sampler = solution_sampler(SEED_R, ROGUE, LIN)
    points = np.array([(0.5, -1.0, 0.0), (1.0, -1.0, 0.0), (1e308, 0, 0)])
    many = sampler(points)
    assert many.q1.shape == (3,)
    assert many.q1[1] == sampler((1.0, -1.0, 0.0)).q1
    assert np.isnan(many.q1[2]) and np.isnan(many.q2[2])


def test_pde_residual_and_peak_search_batch_their_samples(monkeypatch):
    calls = []
    inner = dt_engine.evaluate_points

    def counted(background, config, profile, points):
        calls.append(len(points))
        return inner(background, config, profile, points)

    monkeypatch.setattr(dt_engine, "evaluate_points", counted)
    sampler = solution_sampler(SEED_R, ROGUE, LIN)
    pde_residual(sampler, (0.4, -0.3, 0.0))
    assert calls == [11]
    calls.clear()
    pde_residual(sampler, [(0.4, -0.3, 0.0), (1.0, -1.0, 0.0), (2, 0, 0)])
    assert calls == [33]
    calls.clear()
    peak_search(sampler, GridSpec(0, 2, -2, 0, 5, 5), refine_iters=6)
    # the scan; the first step's neighbours are scan nodes; then one call
    # per two steps, the last step fetching only its own neighbours
    assert calls == [25, 12, 12, 4]


def test_pde_residual_of_no_points_is_empty():
    sampler = solution_sampler(SEED_R, ROGUE, LIN)
    assert pde_residual(sampler, np.empty((0, 3))) == []


# -- a many-point pde_residual gives each point's one-point report -----------


def _reference_pde_residual(sampler, point, step):
    """pde_residual of one point as one 11-sample stencil call."""
    h = step
    x, y, t = point
    offsets = [(i * h, j * h, k * h) for i, j, k in verify._PDE_OFFSETS]
    q1, q2 = _sample_many(sampler, [(x + dx, y + dy, t + dt)
                                    for dx, dy, dt in offsets])
    assert not (np.isnan(q1) | np.isnan(q2)).any()
    (c, xp, xm, pp_t, pm_t, mp_t, mm_t, pp_y, pm_y, mp_y, mm_y) = [
        FieldSample(complex(a), complex(b)) for a, b in zip(q1, q2)]

    def second(ppa, pma, mpa, mma):
        return (ppa - pma - mpa + mma) / (4 * h * h)

    q1x = (xp.q1 - xm.q1) / (2 * h)
    q2x = (xp.q2 - xm.q2) / (2 * h)
    q1xt = second(pp_t.q1, pm_t.q1, mp_t.q1, mm_t.q1)
    q2xt = second(pp_t.q2, pm_t.q2, mp_t.q2, mm_t.q2)
    q1xy = second(pp_y.q1, pm_y.q1, mp_y.q1, mm_y.q1)
    q2xy = second(pp_y.q2, pm_y.q2, mp_y.q2, mm_y.q2)

    a1 = abs(c.q1) ** 2
    a2 = abs(c.q2) ** 2
    r1 = (1j * q1xt - 1j * q1xy + 1j * c.q1 + a1 * q1x + 2 * q1x
          + 0.5 * a2 * q1x + 0.5 * c.q1 * c.q2.conjugate() * q2x)
    r2 = (1j * q2xt - 1j * q2xy + 1j * c.q2 + a2 * q2x + 2 * q2x
          + 0.5 * a1 * q2x + 0.5 * c.q2 * c.q1.conjugate() * q1x)
    return verify.ResidualReport(r1, r2, step, tuple(point))


def _assert_many_equal_one(sampler, points):
    for step in (1e-3, 5e-4):
        many = pde_residual(sampler, np.array(points), step)
        assert len(many) == len(points)
        for point, report in zip(points, many):
            assert repr(report) == repr(pde_residual(sampler, point, step))
            assert repr(report) == repr(
                _reference_pde_residual(sampler, point, step))


@pytest.mark.parametrize("name", PROBE_FAMILIES)
def test_pde_residual_of_many_points_equals_one_point_calls(name):
    s = SCENARIOS[name]
    sampler = solution_sampler(s.background, s.charts, s.profile)
    g = s.grid
    rng = random.Random(name)
    cand = [(rng.uniform(g.x_min, g.x_max), rng.uniform(g.y_min, g.y_max),
             g.t) for _ in range(200)]
    q1 = sampler(np.array(cand)).q1
    # on structure: |q1| off the background's by at least 0.1
    points = [p for p, v in zip(cand, q1.tolist())
              if abs(abs(v) - abs(background_field(s.background, p)[0]))
              >= 0.1][:2]
    assert len(points) == 2
    _assert_many_equal_one(sampler, points)
    # one step per point, as verify passes its points at h and h/2
    steps = [1e-3] * 2 + [5e-4] * 2
    both = pde_residual(sampler, np.array(points * 2), steps)
    for point, step, report in zip(points * 2, steps, both):
        assert repr(report) == repr(
            _reference_pde_residual(sampler, point, step))


def test_pde_residual_of_many_points_samples_point_by_point():
    calls = []

    def rw1(point):
        calls.append(point)
        v = closed_form_rw1(point)
        return FieldSample(v, v)

    rng = random.Random(17)
    points = [(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-1, 1))
              for _ in range(4)]
    _assert_many_equal_one(rw1, points)
    # 11 samples per report: 2 steps x (4 many-point, 4 one-point and 4
    # reference reports)
    assert len(calls) == 2 * 12 * 11
    assert all(type(c) is float for p in calls for c in p)


# -- peak_search's lookahead takes the path of one call per step --------------


def _reference_peak_search(sampler, region, refine_iters):
    """peak_search as one sampler call per step."""
    def probe(points):
        q1, _ = _sample_many(sampler, [(x, y, region.t) for x, y in points])
        v = np.hypot(q1.real, q1.imag)
        v[np.isnan(v)] = -math.inf
        return v

    coarse = [(x, y) for x in region.xs() for y in region.ys()]
    values = probe(coarse)
    k = int(np.argmax(values))
    (bx, by), best_val = coarse[k], float(values[k])
    sx = (region.x_max - region.x_min) / (region.nx - 1)
    sy = (region.y_max - region.y_min) / (region.ny - 1)
    for _ in range(refine_iters):
        steps = [(bx + sx, by), (bx - sx, by), (bx, by + sy), (bx, by - sy)]
        values = probe(steps)
        k = int(np.argmax(values))
        if values[k] > best_val:
            (bx, by), best_val = steps[k], float(values[k])
        else:
            sx *= 0.5
            sy *= 0.5
    return (bx, by), best_val


def _assert_search_follows_reference(monkeypatch, sampler, region):
    for refine_iters in (0, 1, 5, 40):
        calls = []

        def recorded(sampler, points):
            calls.append(points)
            return _sample_many(sampler, points)

        with monkeypatch.context() as m:
            m.setattr(verify, "_sample_many", recorded)
            found = peak_search(sampler, region, refine_iters)
        want = _reference_peak_search(sampler, region, refine_iters)
        assert repr(found) == repr(want)
        assert len(calls) <= 1 + (refine_iters + 1) // 2
        sent = [p for points in calls for p in points]
        assert len(sent) == len(set(sent))


@pytest.mark.parametrize("name", PROBE_FAMILIES)
def test_peak_search_matches_one_call_per_step(monkeypatch, name):
    s = SCENARIOS[name]
    sampler = solution_sampler(s.background, s.charts, s.profile)
    rng = random.Random(name)
    for _ in range(2):
        cx, cy = rng.uniform(-3, 3), rng.uniform(-3, 3)
        wx, wy = rng.uniform(0.3, 2), rng.uniform(0.3, 2)
        region = GridSpec(cx - wx, cx + wx, cy - wy, cy + wy,
                          rng.randint(3, 7), rng.randint(3, 7), s.grid.t)
        _assert_search_follows_reference(monkeypatch, sampler, region)


def test_peak_search_matches_one_call_per_step_past_gaps(monkeypatch):
    # the x = +-400 columns overflow
    _assert_search_follows_reference(
        monkeypatch, solution_sampler(ZeroBackground(), SOLITON, LIN),
        GridSpec(-400, 400, -5, 5, 5, 3))


def test_peak_search_matches_one_call_per_step_on_ties(monkeypatch):
    # |q1| = 1 everywhere: no neighbour improves on the scan's first node
    def plane(point):
        return FieldSample(*plane_wave_field(SEED_R, point))
    _assert_search_follows_reference(monkeypatch, plane,
                                     GridSpec(-2, 2, -1, 3, 9, 9))

    # the rogue crest in terraces: improving neighbours tie, and which
    # one the step takes decides where the search ends
    def terraced(point):
        v = math.floor(8 * abs(closed_form_rw1(point))) / 8
        return FieldSample(v, v)
    _assert_search_follows_reference(monkeypatch, terraced,
                                     GridSpec(-2, 1, 1.5, 4, 6, 4))


def test_peak_search_matches_one_call_per_step_point_by_point(monkeypatch):
    def rw1(point):
        v = closed_form_rw1(point)
        return FieldSample(v, v)
    _assert_search_follows_reference(monkeypatch, rw1,
                                     GridSpec(-2.3, 3.1, -3.2, 1.7, 7, 6))


def _exact_solve(a, b):
    """Gauss-Jordan elimination over the rationals."""
    n = len(a)
    rows = [list(r) + [v] for r, v in zip(a, b)]
    for k in range(n):
        piv = next(i for i in range(k, n) if rows[i][k] != 0)
        rows[k], rows[piv] = rows[piv], rows[k]
        for i in range(n):
            if i != k and rows[i][k] != 0:
                f = rows[i][k] / rows[k][k]
                rows[i] = [u - f * v for u, v in zip(rows[i], rows[k])]
    return [rows[i][n] / rows[i][i] for i in range(n)]
