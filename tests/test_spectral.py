"""Spectral helpers and eigenfunction builders."""

import cmath
import math
import random

import numpy as np
import pytest

from flwave import (
    BreatherChart,
    ConfigError,
    DeformationProfile,
    Jet,
    PlaneWaveSeed,
    RogueChart,
    ZeroBackground,
    ZeroSeedChart,
    critical_lambda,
    discriminant_S,
    is_critical,
    rogue_R,
    rogue_eigenfunction_jet,
    breather_eigenfunction,
    zero_seed_eigenfunction,
)
from flwave.cli import SCENARIOS
from flwave.dt_engine import _jet_power, _merged_power_jets, _power_jets
from flwave.numerics import jet_mul, jet_sqrt_even
from flwave.errors import NumericError
from flwave.spectral import (FORMS, _check_even_parity, _one_point,
                             chart_jets)

SEED_B = PlaneWaveSeed(-1, -1, -1, -2, 1, 1)
SEED_R = PlaneWaveSeed(-0.5, -0.5, -1, -1, 1, 1)
LAM_CRIT = critical_lambda(-0.5, 1.0)


# -- discriminant ------------------------------------------------------------


def test_discriminant_at_zero():
    assert discriminant_S(0j, -1.0, 1.0) == -1
    assert discriminant_S(0j, -0.5, 1.0) == -0.25


def test_discriminant_vanishes_at_critical_branch_point():
    lam = complex(math.sqrt(2) / 4, math.sqrt(2) / 4)
    assert abs(discriminant_S(lam, -0.5, 1.0)) < 1e-14


def test_discriminant_value():
    assert discriminant_S(1 + 0j, -1.0, 1.0) == -9


def test_discriminant_accepts_jets():
    lam = Jet.variable(0.7 + 0.2j, 2)
    s = discriminant_S(lam, -1.0, 1.0)
    assert isinstance(s, Jet)
    assert abs(s.coeffs[0] - discriminant_S(0.7 + 0.2j, -1.0, 1.0)) < 1e-14


# -- critical lambda ---------------------------------------------------------


def test_critical_lambda_caption_value():
    want = complex(math.sqrt(2) / 4, math.sqrt(2) / 4)
    assert abs(LAM_CRIT - want) < 1e-14


def test_critical_lambda_roots_discriminant():
    rng = random.Random(41)
    for _ in range(20):
        a1 = -rng.uniform(0.2, 2.0)
        d1 = rng.uniform(0.3, 2.0)
        lam = critical_lambda(a1, d1)
        scale = 1 + abs(lam) ** 4 + a1 * a1
        assert abs(discriminant_S(lam, a1, d1)) < 1e-12 * scale


def test_is_critical_matches_the_builders_tolerance():
    assert is_critical(LAM_CRIT, SEED_R)
    # 1e-9 off the root, |S| = 2e-9 is above 1e-10 times its scale
    assert not is_critical(LAM_CRIT + 1e-9, SEED_R)
    assert not is_critical(LAM_CRIT, ZeroBackground())


def test_critical_lambda_collapsed_inner_radicand():
    # a1^2 d1^4 + d1^2 a1 = 0 at (a1, d1) = (-1, 1): the nested root
    # collapses to (1/2) sqrt(2) i
    lam = critical_lambda(-1.0, 1.0)
    want = complex(0, math.sqrt(2) / 2)
    assert abs(lam - want) < 1e-14


def test_critical_lambda_sign_branches():
    # the printed radical with (outer, inner) signs; critical_lambda is its
    # (+, -) branch, and S, even with real coefficients, has the others'
    # -lambda and conj(lambda) as roots too
    a1, d1 = -0.5, 1.0
    inner = cmath.sqrt(a1 * a1 * d1 ** 4 + d1 * d1 * a1)

    def branch(s_out, s_in):
        return s_out * 0.5 * cmath.sqrt(
            -4 * a1 * a1 * d1 * d1 + s_in * 4 * a1 * inner - 2 * a1)

    assert branch(1, -1) == LAM_CRIT
    flipped = branch(-1, -1)
    assert abs(LAM_CRIT + flipped) < 1e-14
    other = branch(1, 1)
    assert abs(other - LAM_CRIT.conjugate()) < 1e-14
    assert abs(discriminant_S(other, -0.5, 1.0)) < 1e-12


# -- the rational coefficient R ---------------------------------------------


def test_rogue_R_finite_off_the_critical_locus():
    val = rogue_R(0.8 + 0.1j, SEED_R)
    assert math.isfinite(abs(val))


def test_rogue_R_on_shell_value():
    # closed form on the critical locus: R = i + 1/(2 a1 lam^2) = 5i here
    val = rogue_R(LAM_CRIT, SEED_R)
    assert abs(val - 5j) < 1e-10


def test_rogue_R_is_finite_at_the_removable_pole():
    # lambda^2 = 3/16 zeroes the printed denominator on the principal
    # branch; the numerator vanishes with it and R = i + 1/(2 a1 lam^2)
    val = rogue_R(math.sqrt(3) / 4, SEED_R)
    assert abs(val - (-16 / 3 + 1j)) < 1e-14


def _printed_R(lam, seed, sqS):
    """R as printed: a quotient in lam^2, sqrt(S), a1, b1, c1 and d1."""
    a1, b1, c1, d1 = seed.a1, seed.b1, seed.c1, seed.d1
    lam2 = lam * lam
    lam4 = lam2 * lam2
    den = 4 * lam2 * (-1j * (lam2 + a1) * sqS + 2 * lam4
                      - 2 * (-2 * a1 * a1 * d1 * d1 - a1) * lam2
                      + a1 * a1 / 2)
    num = (2 * (-1j + 2 * lam4
                + (2j + 2j * d1 * d1 + 1j * b1 - 1j * c1 + 2 * a1) * lam2) * sqS
           + 8j * lam4 * lam2
           + 2 * lam2 * (1j * a1 * a1 + 4 * a1 * d1 * d1 + 2)
           + a1
           + 4 * lam4 * (-2 + 4j * a1 * a1 * d1 * d1 + 2j * a1
                         - 2 * d1 * d1 - b1 + c1))
    return num / den


@pytest.mark.parametrize("seed", [SEED_R, SEED_B,
                                  PlaneWaveSeed(0.7, 0.7, 0.3, -0.4, 2, 2)])
def test_rogue_R_matches_the_printed_quotient(seed):
    rng = random.Random(11)
    for _ in range(50):
        lam = cmath.rect(rng.uniform(0.3, 2.0), rng.uniform(0.0, 2 * math.pi))
        sqS = cmath.sqrt(discriminant_S(lam, seed.a1, seed.d1))
        want = rogue_R(lam, seed)
        for branch in (sqS, -sqS):
            assert abs(_printed_R(lam, seed, branch) - want) \
                <= 1e-12 * abs(want)


def test_rogue_R_accepts_jets():
    lam = Jet.variable(LAM_CRIT, 4, power=2)
    R = rogue_R(lam, SEED_R)
    assert isinstance(R, Jet)
    assert abs(R.coeffs[0] - rogue_R(LAM_CRIT, SEED_R)) < 1e-14


def test_rogue_R_rejects_an_asymmetric_seed():
    with pytest.raises(ConfigError):
        rogue_R(LAM_CRIT, PlaneWaveSeed(-0.5, -0.7, -1, -1, 1, 1))


# -- zero-seed eigenfunctions ------------------------------------------------


def test_zero_seed_at_origin():
    chart = ZeroSeedChart(1 + 1j, h1=1 + 1j)
    trip = zero_seed_eigenfunction(chart, DeformationProfile.LINEAR,
                                   (0, 0, 0), 0)
    assert abs(trip.phi1.coeffs[0] - 1) < 1e-15
    assert abs(trip.phi2.coeffs[0] - 1) < 1e-15
    assert abs(trip.phi3.coeffs[0] - 1) < 1e-15


def test_zero_seed_components_two_three_equal():
    chart = ZeroSeedChart(1 + 1j, h1=1 + 1j)
    rng = random.Random(42)
    for _ in range(10):
        p = tuple(rng.uniform(-3, 3) for _ in range(3))
        trip = zero_seed_eigenfunction(chart, DeformationProfile.SINE, p, 2)
        assert trip.phi2 == trip.phi3


def test_zero_seed_jet_order_consistency():
    chart = ZeroSeedChart(0.9 + 0.4j, h1=0.5 - 0.3j)
    p = (0.7, -1.1, 0.4)
    lo = zero_seed_eigenfunction(chart, DeformationProfile.QUADRATIC, p, 2)
    hi = zero_seed_eigenfunction(chart, DeformationProfile.QUADRATIC, p, 5)
    for a, b in zip((lo.phi1, lo.phi2, lo.phi3),
                    (hi.phi1, hi.phi2, hi.phi3)):
        trunc = b.coeffs[:3]
        assert max(abs(u - v) for u, v in zip(a.coeffs, trunc)) < 1e-12


# -- breather eigenfunctions -------------------------------------------------


def test_breather_H_squares_to_S():
    lam = Jet.variable(0.5 + 0.5j, 3)
    S = discriminant_S(lam, -1.0, 1.0)
    H = jet_sqrt_even(S)
    H2 = jet_mul(H, H)
    assert max(abs(u - v) for u, v in zip(H2.coeffs, S.coeffs)) < 1e-13


def test_breather_requires_symmetric_seed():
    chart = BreatherChart(0.5 + 0.5j, 0, 1, 1, 1 + 1j, -1 - 1j)
    asym = PlaneWaveSeed(-1, -2, -1, -2, 1, 1)
    with pytest.raises(ConfigError):
        breather_eigenfunction(chart, asym, DeformationProfile.LINEAR,
                               (0, 0, 0), 0)


def test_breather_chart_rejects_l2_and_l3_both_zero():
    # psi1 = l2 W12 e2 + l3 W13 e3 would vanish at every point
    with pytest.raises(ConfigError, match="chart l2 and l3"):
        BreatherChart(0.5 + 0.5j, 1, 0, 0)
    for l2, l3 in ((1, 0), (0, 1)):
        assert BreatherChart(0.5 + 0.5j, 0, l2, l3).l2 == l2


def test_breather_rejects_degenerate_lambda():
    chart = BreatherChart(LAM_CRIT, 0, 1, 1, 0j, 0j)
    # twice: the check runs in a cached static, which caches no exception
    for _ in range(2):
        with pytest.raises(ConfigError, match="use a rogue chart"):
            breather_eigenfunction(chart, SEED_R, DeformationProfile.LINEAR,
                                   (0, 0, 0), 0)


def test_breather_components_two_three_differ_with_l1():
    chart = BreatherChart(0.5 + 0.5j, 1, 1, 1, 1 + 1j, 1 + 1j)
    trip = breather_eigenfunction(chart, SEED_B, DeformationProfile.LINEAR,
                                  (0.3, -0.2, 0.1), 0)
    assert abs(trip.phi2.coeffs[0] - trip.phi3.coeffs[0]) > 1e-6


def test_breather_jet_order_consistency():
    chart = BreatherChart(0.5 + 0.5j, 0, 1, 1, 1 + 1j, -1 - 1j)
    p = (0.4, 0.6, -0.3)
    lo = breather_eigenfunction(chart, SEED_B, DeformationProfile.LINEAR,
                                p, 1)
    hi = breather_eigenfunction(chart, SEED_B, DeformationProfile.LINEAR,
                                p, 4)
    for a, b in zip((lo.phi1, lo.phi2, lo.phi3),
                    (hi.phi1, hi.phi2, hi.phi3)):
        trunc = b.coeffs[:2]
        scale = max(abs(c) for c in a.coeffs) + 1.0
        assert max(abs(u - v) for u, v in zip(a.coeffs, trunc)) \
            < 1e-12 * scale


# -- rogue eigenfunction jets ------------------------------------------------


def test_rogue_rejects_non_critical_lambda():
    chart = RogueChart(0.5 + 0.5j)
    with pytest.raises(ConfigError, match="rogue charts need the critical"):
        rogue_eigenfunction_jet(chart, SEED_R, (0, 0, 0), 0)


def test_rogue_rejects_asymmetric_seed():
    chart = RogueChart(LAM_CRIT)
    asym = PlaneWaveSeed(-0.5, -0.5, -1, -2, 1, 1)
    with pytest.raises(ConfigError):
        rogue_eigenfunction_jet(chart, asym, (0, 0, 0), 0)


def test_rogue_enforces_jet_order():
    chart = RogueChart(LAM_CRIT, shifts=((0.0, 0.0),), multiplicity=1)
    with pytest.raises(ConfigError, match="needs jet order >= 2, got 1"):
        rogue_eigenfunction_jet(chart, SEED_R, (0, 0, 0), 1)


def test_rogue_leading_coefficient_finite():
    chart = RogueChart(LAM_CRIT)
    trip = rogue_eigenfunction_jet(chart, SEED_R, (0.5, -0.7, 0.2), 0)
    for jet in (trip.phi1, trip.phi2, trip.phi3):
        assert math.isfinite(abs(jet.coeffs[0]))
        assert abs(jet.coeffs[0]) > 0


def test_rogue_even_parity():
    chart = RogueChart(LAM_CRIT, shifts=((3.0, -2.0),), multiplicity=1)
    rng = random.Random(43)
    for _ in range(5):
        p = tuple(rng.uniform(-2, 2) for _ in range(3))
        trip = rogue_eigenfunction_jet(chart, SEED_R, p, 4)
        scale = max(max(abs(c) for c in jet.coeffs)
                    for jet in (trip.phi1, trip.phi2, trip.phi3))
        for jet in (trip.phi1, trip.phi2, trip.phi3):
            for c in jet.coeffs[1::2]:
                assert abs(c) < 1e-10 * scale


def test_rogue_zero_shifts_match_shift_free():
    plain = RogueChart(LAM_CRIT, multiplicity=1, shifts=((0.0, 0.0),))
    free = RogueChart(LAM_CRIT, multiplicity=1)
    p = (0.8, -1.2, 0.3)
    a = rogue_eigenfunction_jet(plain, SEED_R, p, 2)
    b = rogue_eigenfunction_jet(free, SEED_R, p, 2)
    for u, v in zip((a.phi1, a.phi2, a.phi3), (b.phi1, b.phi2, b.phi3)):
        scale = max(abs(c) for c in u.coeffs) + 1.0
        assert max(abs(x - y) for x, y in zip(u.coeffs, v.coeffs)) \
            < 1e-12 * scale


def test_even_parity_check_flags_only_finite_breaks():
    rows = np.zeros((2, 3, 3), complex)
    rows[:, 0] = 1.0
    rows[1, 1] = [1e-11, 1e-9, np.nan]  # below, above, at a gap
    rows[0, 2, 2] = np.nan
    with pytest.raises(NumericError, match="even parity") as err:
        _check_even_parity(rows)
    assert "1.000e-09" in str(err.value)
    rows[1, 1, 1] = 0
    _check_even_parity(rows)
    _check_even_parity(rows[:, :1])  # no odd coefficients


def test_rogue_components_two_three_equal():
    chart = RogueChart(LAM_CRIT)
    trip = rogue_eigenfunction_jet(chart, SEED_R, (1.1, 0.6, -0.4), 2)
    assert trip.phi2 == trip.phi3


# -- per-chart statics -------------------------------------------------------


def test_cached_statics_are_read_only():
    # every chunk of every later call shares them
    arrays = []
    for s in SCENARIOS.values():
        for chart in s.charts.charts:
            order = _jet_power(chart) * chart.multiplicity
            for powers in (_power_jets, _merged_power_jets):
                arrays.append(powers(chart.lam, order, _jet_power(chart),
                                     s.charts.folds))
            form = FORMS[type(chart)](chart, s.background, order)
            for v in vars(form).values():
                arrays.extend(a for a in (v if isinstance(v, tuple) else [v])
                              if isinstance(a, np.ndarray))
    assert arrays
    assert not [a for a in arrays if a.flags.writeable]


def test_paired_charts_return_phi3_as_phi2():
    # _assemble and _layout read phi3 is phi2 as the pairing of a chart
    paired_panels = []
    for name, s in sorted(SCENARIOS.items()):
        seed = s.background
        pairs = []
        for chart in s.charts.charts:
            order = _jet_power(chart) * chart.multiplicity
            _, phi2, phi3 = chart_jets(chart, seed, s.profile,
                                       *_one_point((0.3, -0.2, 0.1)), order)
            if isinstance(chart, BreatherChart):
                want = chart.l1 == 0 and (seed.a1, seed.b1, seed.c1) \
                    == (seed.a2, seed.b2, seed.c2)
            else:
                want = True
            assert (phi3 is phi2) == want, name
            pairs.append(want)
        if all(pairs):
            paired_panels.append(name)
    assert paired_panels == [
        n for n in sorted(SCENARIOS) if n[:4] in ("fig1", "fig3", "fig4")
        or n in ("fig5a", "fig5b", "fig6a", "fig6b", "fig6c")]
    assert len(paired_panels) == 23
