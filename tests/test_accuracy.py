"""Sample accuracy against an extended-precision oracle.

The oracle solves the same double-precision system Omega_1 z = r in
50-digit mpmath arithmetic, so it judges the solve alone: the two field
ratios (the fields minus the seed) must match it to 1e-12 relative, at
seeded random nodes of every panel's frame and at nodes where the solve
works hardest.  A second oracle solves the faithful 3N system of a fully
paired panel, with its phi3 rows, so it also judges the reduction to 2N.
"""

import random

import mpmath
import numpy as np
import pytest

from flwave import GridSpec, dt_engine, pde_residual, solution_sampler
from flwave.cli import SCENARIOS
from flwave.spectral import _one_point, chart_jets

ORACLE_DIGITS = 50
RATIO_RTOL = 1e-12
N3_SCENARIOS = ("fig4a", "fig4b", "fig4c", "fig4d",
                "fig6a", "fig6b", "fig6c", "fig6d", "fig6e", "fig6f")
# every chart of these is paired: the engine solves a 2N system
PAIRED_N3_SCENARIOS = ("fig4a", "fig4b", "fig4c", "fig4d",
                       "fig6a", "fig6b", "fig6c")
SUBGRID_NODES = 21

# frame nodes where eliminating three determinants in double precision
# lost digits: cond(Omega_1) 4.6e11 and 1.5e12 on fig6f, and on figYa a
# ratio of modulus 1.6e-7 with cond 1.3e7
HARD_NODES = (("fig6f", (-15.0, -35.0, 0.0)),
              ("fig6f", (-35.42, -14.58, 0.0)),
              ("figYa", (-2.94, -6.70, 0.0)))
RICHARDSON_NODES = HARD_NODES[1:]
RICHARDSON_STEPS = (1e-3, 5e-4, 2.5e-4)
SWEEP_NODES_PER_PANEL = 2


def _sweep_nodes():
    """SWEEP_NODES_PER_PANEL seeded random nodes of each panel's frame;
    HARD_NODES have their own test."""
    nodes = []
    for name in sorted(SCENARIOS):
        g = SCENARIOS[name].grid
        rng = random.Random(f"sweep:{name}")
        nodes += [(name, (rng.uniform(g.x_min, g.x_max),
                          rng.uniform(g.y_min, g.y_max), g.t))
                  for _ in range(SWEEP_NODES_PER_PANEL)]
    return nodes


def _system(s, point, faithful=False):
    """Omega_1 and r at one point, as the engine assembles them, or with
    faithful=True as the 3N system of distinct phi2 and phi3 rows."""
    phis = [chart_jets(c, s.background, s.profile, *_one_point(point),
                       dt_engine._jet_power(c) * c.multiplicity)
            for c in s.charts.charts]
    if faithful:
        phis = [(phi1, phi2, phi2.copy()) for phi1, phi2, _ in phis]
    omega1, r = dt_engine._assemble(s.charts, phis)
    return omega1[0], r[0]


def _oracle_ratios(omega1, r, folds):
    """The two ratios of the system: entries 3N-2 and 3N-1 of z, or the
    last entry twice for a reduced 2N system, whose last unknown stands
    for both."""
    with mpmath.workdps(ORACLE_DIGITS):
        a = mpmath.matrix([[mpmath.mpc(c) for c in row] for row in omega1])
        z = mpmath.lu_solve(a, mpmath.matrix([mpmath.mpc(c) for c in r]))
        n = len(omega1)
        first = n - 1 if n == 2 * folds else n - 2
        return z[first], z[n - 1]


def _pivot_ratio(omega1) -> float:
    """max |u_kk| / min |u_kk| of partially pivoted LU after scaling rows,
    then columns, to unit maximum."""
    a = np.array(omega1, dtype=complex)
    a /= np.abs(a).max(axis=1, keepdims=True)
    a /= np.abs(a).max(axis=0, keepdims=True)
    n = len(a)
    pivots = []
    for k in range(n):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        a[[k, p]] = a[[p, k]]
        pivots.append(abs(a[k, k]))
        if a[k, k] == 0:
            return np.inf
        a[k + 1:, k:] -= np.outer(a[k + 1:, k] / a[k, k], a[k, k:])
    return max(pivots) / min(pivots)


def _worst_conditioned_node(s):
    g = s.grid
    spec = GridSpec(g.x_min, g.x_max, g.y_min, g.y_max, SUBGRID_NODES,
                    SUBGRID_NODES, g.t)
    nodes = [(x, y, g.t) for y in spec.ys() for x in spec.xs()]
    return max(nodes, key=lambda p: _pivot_ratio(_system(s, p)[0]))


def _sampled_ratios(monkeypatch, s, point):
    # with a zero seed field the sampled fields are the ratios themselves,
    # free of the cancellation that subtracting the seed would cost
    monkeypatch.setattr(dt_engine, "background_field",
                        lambda background, point: (0j, 0j))
    sample = dt_engine.evaluate_solution(s.background, s.charts, s.profile,
                                         point)
    return sample.q1, sample.q2


def _assert_matches_oracle(monkeypatch, name, point, faithful=False):
    s = SCENARIOS[name]
    want = _oracle_ratios(*_system(s, point, faithful), s.charts.folds)
    got = _sampled_ratios(monkeypatch, s, point)
    for g, w in zip(got, want):
        with mpmath.workdps(ORACLE_DIGITS):
            err = abs(mpmath.mpc(g) - w) / abs(w)
        assert err <= RATIO_RTOL, (name, point, float(err))


@pytest.mark.parametrize("name,point", HARD_NODES)
def test_ratios_match_oracle_at_hard_nodes(monkeypatch, name, point):
    _assert_matches_oracle(monkeypatch, name, point)


@pytest.mark.parametrize("name,point", _sweep_nodes())
def test_ratios_match_oracle_across_every_panel(monkeypatch, name, point):
    _assert_matches_oracle(monkeypatch, name, point)


@pytest.mark.parametrize("name", N3_SCENARIOS)
def test_ratios_match_oracle_at_worst_conditioned_node(monkeypatch, name):
    point = _worst_conditioned_node(SCENARIOS[name])
    _assert_matches_oracle(monkeypatch, name, point)


@pytest.mark.parametrize("name", PAIRED_N3_SCENARIOS)
def test_reduced_ratio_matches_the_full_system_oracle(monkeypatch, name):
    # the engine solves these panels' 2N systems; the oracle solves the
    # 3N one whose phi3 is a copy of phi2, and so is not reduced
    s = SCENARIOS[name]
    point = _worst_conditioned_node(s)
    assert len(_system(s, point)[0]) == 2 * s.charts.folds
    _assert_matches_oracle(monkeypatch, name, point, faithful=True)


@pytest.mark.parametrize("name,point", RICHARDSON_NODES)
def test_default_sampler_converges_at_second_order(name, point):
    s = SCENARIOS[name]
    sampler = solution_sampler(s.background, s.charts, s.profile)
    res = [pde_residual(sampler, point, h).max_abs for h in RICHARDSON_STEPS]
    for coarse, fine in zip(res, res[1:]):
        assert 0.2 <= fine / coarse <= 0.3, (name, point, res)
