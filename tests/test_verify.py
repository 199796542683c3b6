"""Residual oracles, closed forms, and peak detection."""

import cmath
import math
import random

import numpy as np
import pytest

from flwave import (
    DeformationProfile,
    DtConfig,
    FieldGrid,
    FieldSample,
    GridSpec,
    NumericError,
    PlaneWaveSeed,
    RogueChart,
    SingularPointError,
    ZeroBackground,
    ZeroSeedChart,
    closed_form_rw1,
    count_local_maxima,
    critical_lambda,
    pde_residual,
    peak_search,
    plane_wave_field,
    solution_sampler,
)

SEED_R = PlaneWaveSeed(-0.5, -0.5, -1, -1, 1, 1)
LAM_CRIT = critical_lambda(-0.5, 1.0)
LIN = DeformationProfile.LINEAR
# the soliton panel: its exponentials overflow far out on x
FAR_SOLITON = solution_sampler(ZeroBackground(),
                               DtConfig((ZeroSeedChart(1 + 1j, h1=1 + 1j),)),
                               LIN)


def rw1_sampler(point):
    v = closed_form_rw1(point)
    return FieldSample(v, v)


def plane_sampler(point):
    q1, q2 = plane_wave_field(SEED_R, point)
    return FieldSample(q1, q2)


# -- closed-form first-order rogue wave --------------------------------------


def test_rw1_background_value_at_origin():
    assert abs(closed_form_rw1((0.0, 0.0, 0.0)) - cmath.exp(0j)) < 1e-15 \
        or abs(abs(closed_form_rw1((0.0, 0.0, 0.0))) - 1.0) < 1e-15


def test_rw1_peak_value_at_one_minus_one():
    assert abs(abs(closed_form_rw1((1.0, -1.0, 0.0))) - 3.0) < 1e-12


def test_rw1_decays_to_background():
    for p in ((80.0, 3.0, 0.0), (-70.0, -50.0, 1.0), (5.0, 90.0, -2.0)):
        assert abs(abs(closed_form_rw1(p)) - 1.0) < 1e-2
    assert abs(abs(closed_form_rw1((1e4, 0.0, 0.0))) - 1.0) < 1e-6


def test_rw1_satisfies_the_coupled_system():
    # third derivatives near the crest push a second-order stencil above
    # the bound, so sample the far field; the crest rides at (1, -1-5t)
    rng = random.Random(71)
    for _ in range(10):
        t = rng.uniform(-1, 1)
        d = rng.uniform(4.0, 8.0)
        ang = rng.uniform(0, 2 * math.pi)
        x = 1.0 + d * math.cos(ang)
        y = -1.0 - 5 * t + d * math.sin(ang)
        rep = pde_residual(rw1_sampler, (x, y, t), step=1e-3)
        assert rep.max_abs < 1e-5


# -- pde_residual ------------------------------------------------------------


def test_residual_zero_field_is_exactly_zero():
    rep = pde_residual(lambda p: FieldSample(0j, 0j), (0.3, -0.2, 0.1))
    assert rep.residual1 == 0
    assert rep.residual2 == 0


def test_residual_plane_wave_small():
    rng = random.Random(72)
    for _ in range(5):
        point = (rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-1, 1))
        rep = pde_residual(plane_sampler, point, step=1e-3)
        assert rep.max_abs < 1e-6


def test_residual_report_carries_inputs():
    rep = pde_residual(plane_sampler, (0.5, 0.25, -0.75), step=2e-3)
    assert rep.step == 2e-3
    assert rep.point == (0.5, 0.25, -0.75)


def test_residual_second_order_convergence():
    # truncation error is O(h^2): halving h divides the residual by ~4
    rng = random.Random(73)
    for _ in range(6):
        point = (rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-1, 1))
        big = pde_residual(rw1_sampler, point, step=1e-3).max_abs
        small = pde_residual(rw1_sampler, point, step=5e-4).max_abs
        assert 0.20 < small / big < 0.30


def test_residual_detects_a_wrong_field():
    def bad(point):
        x, y, t = point
        return FieldSample(cmath.exp(1j * (x + y)), cmath.exp(1j * (x + y)))
    rep = pde_residual(bad, (0.4, 0.2, 0.0))
    assert rep.max_abs > 1e-2


def test_residual_singular_sample_maps_to_stencil_error():
    def broken(point):
        x, y, t = point
        if x > 0.3005:
            raise SingularPointError("synthetic gap")
        return FieldSample(0j, 0j)
    with pytest.raises(NumericError, match="singular sample at offset") as exc:
        pde_residual(broken, (0.3, 0.0, 0.0), step=1e-3)
    # a residual that cannot be formed is a failed check, not a gap
    assert not isinstance(exc.value, SingularPointError)


def test_residual_gap_names_its_check_point():
    # the soliton's x = +-400 columns overflow; the first point with a gap
    # in its stencil is the fourth
    g = GridSpec(-400, 400, -5, 5, 5, 3)
    points = [(x, y, g.t) for y in g.ys() for x in g.xs()[1:]]
    with pytest.raises(NumericError) as exc:
        pde_residual(FAR_SOLITON, points)
    assert str(exc.value) == ("singular sample at offset (0.0, 0.0, 0.0) "
                              "of check point (400.0, -5.0, 0.0)")
    assert not isinstance(exc.value, SingularPointError)
    # the unmasked columns form their reports
    assert len(pde_residual(FAR_SOLITON, points[:3])) == 3


def test_residual_overflowing_sample_maps_to_stencil_error():
    with pytest.raises(NumericError, match="singular sample at offset") as exc:
        pde_residual(FAR_SOLITON, (400.0, 0.0, 0.0))
    assert not isinstance(exc.value, SingularPointError)


# -- peak_search -------------------------------------------------------------


def test_peak_search_finds_rogue_crest():
    (x, y), mag = peak_search(rw1_sampler, GridSpec(-5, 5, -5, 5, 41, 41))
    assert abs(mag - 3.0) < 1e-6
    assert abs(x - 1.0) < 1e-3
    assert abs(y + 1.0) < 1e-3


def test_peak_search_tie_break_prefers_low_corner():
    (x, y), mag = peak_search(plane_sampler, GridSpec(-2, 2, -1, 3, 9, 9),
                              refine_iters=5)
    assert (x, y) == (-2.0, -1.0)
    assert abs(mag - 1.0) < 1e-12


def test_peak_search_second_order_rogue_exceeds_first():
    cfg = DtConfig((RogueChart(LAM_CRIT, multiplicity=1),))
    sam = solution_sampler(SEED_R, cfg, LIN)
    _, mag = peak_search(sam, GridSpec(-3, 3, -3, 3, 25, 25))
    assert mag > 3.0


def test_peak_search_skips_overflowing_nodes():
    # the x = +-400 columns overflow; the search still climbs the crest
    # (|q1| = 1/sqrt(2), as a search on a small window finds it)
    _, mag = peak_search(FAR_SOLITON, GridSpec(-400, 400, -5, 5, 5, 3))
    assert abs(mag - math.sqrt(0.5)) < 1e-6


def test_peak_search_all_singular_raises():
    def dead(point):
        raise SingularPointError("nothing here")
    with pytest.raises(NumericError, match="no usable samples") as exc:
        peak_search(dead, GridSpec(-1, 1, -1, 1, 5, 5))
    assert not isinstance(exc.value, SingularPointError)


# -- count_local_maxima ------------------------------------------------------


def bump_grid(centers, nx=81, ny=81, lo=-10.0, hi=10.0):
    spec = GridSpec(lo, hi, lo, hi, nx, ny)
    xs = np.linspace(lo, hi, nx)
    ys = np.linspace(lo, hi, ny)
    xg, yg = np.meshgrid(xs, ys)
    q1 = np.zeros((ny, nx), dtype=complex)
    for (cx, cy, amp) in centers:
        q1 += amp * np.exp(-((xg - cx) ** 2 + (yg - cy) ** 2))
    return FieldGrid(spec=spec, q1=q1, q2=q1.copy(),
                     mask=np.zeros((ny, nx), dtype=bool))


def test_count_maxima_isolated_bumps():
    grid = bump_grid([(-5, -5, 2.0), (5, 5, 3.0), (5, -5, 2.5)])
    assert count_local_maxima(grid, 1.0) == 3


def test_count_maxima_threshold_filters():
    grid = bump_grid([(-5, -5, 2.0), (5, 5, 3.0), (5, -5, 2.5)])
    assert count_local_maxima(grid, 2.7) == 1
    assert count_local_maxima(grid, 3.5) == 0


def test_count_maxima_masked_peak_ignored():
    grid = bump_grid([(-5, -5, 2.0), (5, 5, 3.0)])
    iy = int(np.argmin(np.abs(np.linspace(-10, 10, 81) - 5.0)))
    grid.mask[iy, iy] = True
    assert count_local_maxima(grid, 1.0) == 1


def test_count_maxima_flat_field_has_none():
    spec = GridSpec(-3, 3, -3, 3, 21, 21)
    q1 = np.full((21, 21), 1.0 + 0j)
    grid = FieldGrid(spec=spec, q1=q1, q2=q1.copy(),
                     mask=np.zeros((21, 21), dtype=bool))
    assert count_local_maxima(grid, 1.5) == 0
    assert count_local_maxima(grid, 0.5) == 0


def test_count_maxima_border_extrema_excluded():
    # ramp peaks on the boundary; interior-only counting sees nothing
    spec = GridSpec(0, 1, 0, 1, 11, 11)
    xs = np.linspace(0, 1, 11)
    q1 = np.tile(xs, (11, 1)).astype(complex)
    grid = FieldGrid(spec=spec, q1=q1, q2=q1.copy(),
                     mask=np.zeros((11, 11), dtype=bool))
    assert count_local_maxima(grid, 0.1) == 0


# -- pole guard --------------------------------------------------------------


def test_rw1_pole_guard_does_not_fire_on_the_grid():
    for x in np.linspace(-10, 10, 101):
        for y in np.linspace(-10, 10, 101):
            closed_form_rw1((float(x), float(y), 0.0))
