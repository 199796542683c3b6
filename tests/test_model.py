"""Seed backgrounds, dispersion relation, profiles, grids, JSON schema."""

import cmath
import math
import random

import pytest

from flwave import (
    ConfigError,
    DeformationProfile,
    GridSpec,
    PlaneWaveSeed,
    ZeroBackground,
    background_field,
    dispersion_relation,
    plane_wave_field,
    profile_eval,
)
from flwave.model import grid_from_json, profile_from_json, seed_from_json


def test_dispersion_caption_pairs():
    assert dispersion_relation(-1, -1, -1, -2, 1, 1) == (2, 1)
    assert dispersion_relation(-0.5, -0.5, -1, -1, 1, 1) == (1, 1)


def test_dispersion_zero_amplitude_limit():
    # at d1 = d2 = 0 the printed formula collapses to c1 = b1 + 2 + 1/a1
    c1, _ = dispersion_relation(1, 1, 0, 0, 0, 0)
    assert c1 == 3


def test_dispersion_rejects_zero_wavenumber():
    with pytest.raises(ConfigError, match="a1"):
        dispersion_relation(0, -1, -1, -2, 1, 1)
    with pytest.raises(ConfigError, match="a2"):
        dispersion_relation(-1, 0, -1, -2, 1, 1)


def test_seed_stores_derived_frequencies():
    seed = PlaneWaveSeed(-1, -1, -1, -2, 1, 1)
    assert (seed.c1, seed.c2) == (2, 1)
    # c1, c2 are derived, never inputs
    with pytest.raises(TypeError):
        PlaneWaveSeed(-1, -1, -1, -2, 1, 1, c1=5)


def test_seed_rejects_negative_amplitude():
    with pytest.raises(ConfigError):
        PlaneWaveSeed(-1, -1, -1, -2, -1, 1)


def test_seed_symmetry_flag():
    assert PlaneWaveSeed(-1, -1, -1, -2, 1, 1).symmetric
    assert not PlaneWaveSeed(-1, -2, -1, -2, 1, 1).symmetric


def test_plane_wave_at_origin():
    seed = PlaneWaveSeed(-0.5, -0.5, -1, -1, 1, 1)
    assert plane_wave_field(seed, (0, 0, 0)) == (1, 1)


def test_plane_wave_unit_modulus():
    seed = PlaneWaveSeed(-1, -1, -1, -2, 1.5, 0.5)
    rng = random.Random(31)
    for _ in range(20):
        p = (rng.uniform(-9, 9), rng.uniform(-9, 9), rng.uniform(-9, 9))
        q1, q2 = plane_wave_field(seed, p)
        assert abs(abs(q1) - 1.5) < 1e-12
        assert abs(abs(q2) - 0.5) < 1e-12


def test_plane_wave_pointwise_reevaluation():
    seed = PlaneWaveSeed(-0.5, -0.5, -1, -1, 1, 1)
    rng = random.Random(32)
    for _ in range(20):
        x, y, t = (rng.uniform(-5, 5) for _ in range(3))
        q1, q2 = plane_wave_field(seed, (x, y, t))
        th1 = seed.a1 * x + seed.b1 * y + seed.c1 * t
        th2 = seed.a2 * x + seed.b2 * y + seed.c2 * t
        assert abs(q1 - cmath.exp(1j * th1)) < 1e-13
        assert abs(q2 - cmath.exp(1j * th2)) < 1e-13


def test_plane_wave_solves_pde_with_analytic_derivatives():
    # q_j = d_j e^{i theta_j} has exact derivatives; the component equation
    # left-hand side must vanish identically once (c1, c2) come from the
    # dispersion relation
    seed = PlaneWaveSeed(-1, -1, -1, -2, 1, 1)
    rng = random.Random(33)
    for _ in range(10):
        p = (rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-5, 5))
        q1, q2 = plane_wave_field(seed, p)
        q1x = 1j * seed.a1 * q1
        q2x = 1j * seed.a2 * q2
        q1xt = 1j * seed.c1 * q1x
        q1xy = 1j * seed.b1 * q1x
        r1 = (1j * q1xt - 1j * q1xy + 1j * q1 + abs(q1) ** 2 * q1x
              + 2 * q1x + 0.5 * abs(q2) ** 2 * q1x
              + 0.5 * q1 * q2.conjugate() * q2x)
        assert abs(r1) < 1e-12
        q2xt = 1j * seed.c2 * q2x
        q2xy = 1j * seed.b2 * q2x
        r2 = (1j * q2xt - 1j * q2xy + 1j * q2 + abs(q2) ** 2 * q2x
              + 2 * q2x + 0.5 * abs(q1) ** 2 * q2x
              + 0.5 * q2 * q1.conjugate() * q1x)
        assert abs(r2) < 1e-12


def test_background_field_variants():
    assert background_field(ZeroBackground(), (1, 2, 3)) == (0, 0)
    seed = PlaneWaveSeed(-0.5, -0.5, -1, -1, 1, 1)
    assert background_field(seed, (0, 0, 0)) == (1, 1)


def test_profile_eval_variants():
    assert profile_eval(DeformationProfile.LINEAR, 0.0) == 0
    assert profile_eval(DeformationProfile.LINEAR, 2.5) == 2.5
    assert profile_eval(DeformationProfile.QUADRATIC, 3.0) == 9
    assert profile_eval(DeformationProfile.CUBIC, 2.0) == 8
    assert abs(profile_eval(DeformationProfile.SINE, 1.5707963267948966) - 1) \
        < 1e-15


def test_profile_from_name():
    assert DeformationProfile.from_name("cubic") is DeformationProfile.CUBIC
    with pytest.raises(ConfigError):
        DeformationProfile.from_name("quartic")


def test_grid_spec_validation():
    g = GridSpec(-1, 1, -2, 2, 3, 5, t=0.5)
    assert g.xs() == [-1, 0, 1]
    assert len(g.ys()) == 5
    assert g.ys()[0] == -2 and g.ys()[-1] == 2
    with pytest.raises(ConfigError):
        GridSpec(1, -1, -2, 2, 3, 5)
    with pytest.raises(ConfigError):
        GridSpec(-1, 1, 2, -2, 3, 5)
    with pytest.raises(ConfigError):
        GridSpec(-1, 1, -2, 2, 1, 5)


def test_seed_from_json():
    assert seed_from_json("zero") == ZeroBackground()
    obj = {"a1": -1, "a2": -1, "b1": -1, "b2": -2, "d1": 1, "d2": 1}
    seed = seed_from_json(obj)
    assert isinstance(seed, PlaneWaveSeed)
    assert (seed.c1, seed.c2) == (2, 1)
    with pytest.raises(ConfigError):
        seed_from_json({"a1": -1})
    with pytest.raises(ConfigError):
        seed_from_json({**obj, "c1": 2})


def test_profile_from_json():
    assert profile_from_json("sine") is DeformationProfile.SINE
    with pytest.raises(ConfigError):
        profile_from_json(7)


def test_grid_from_json():
    g = grid_from_json({"x": [-3, 3, 7], "y": [-2, 2, 5], "t": 1.5})
    assert (g.x_min, g.x_max, g.nx) == (-3, 3, 7)
    assert (g.y_min, g.y_max, g.ny) == (-2, 2, 5)
    assert g.t == 1.5
    with pytest.raises(ConfigError):
        grid_from_json({"x": [-3, 3], "y": [-2, 2, 5], "t": 0})


def test_grid_spec_rejects_non_finite_values():
    for bad in (dict(x_max=math.inf), dict(y_min=-math.inf),
                dict(x_min=math.nan), dict(t=math.inf), dict(t=math.nan)):
        args = dict(x_min=-1.0, x_max=1.0, y_min=-1.0, y_max=1.0, nx=3,
                    ny=3, t=0.0)
        args.update(bad)
        name = next(iter(bad))
        with pytest.raises(ConfigError, match=f"grid {name} must be finite"):
            GridSpec(**args)


def test_grid_spec_node_counts_are_whole_numbers():
    assert GridSpec(-1, 1, -1, 1, 3.0, 4.0).nx == 3
    assert isinstance(GridSpec(-1, 1, -1, 1, 3.0, 4.0).ny, int)
    for nx in (2.5, math.nan, math.inf, 1, -3):
        with pytest.raises(ConfigError, match="grid nx must be a whole"):
            GridSpec(-1, 1, -1, 1, nx, 3)


def test_grid_from_json_rejects_fractional_node_count():
    with pytest.raises(ConfigError, match="grid nx must be a whole"):
        grid_from_json({"x": [-3, 3, 6.5], "y": [-2, 2, 5]})
    with pytest.raises(ConfigError, match="grid ny must be a whole"):
        grid_from_json({"x": [-3, 3, 7], "y": [-2, 2, 1.9]})
