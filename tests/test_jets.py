"""Truncated power series arithmetic: worked examples and ring laws."""

import cmath
import math
import random

import numpy as np
import pytest

from flwave import Jet
from flwave.errors import ConfigError
from flwave.numerics import jet_div, jet_mul, jet_sqrt_even, series_exp


def random_jet(rng, order, scale=1.0):
    return Jet([complex(rng.uniform(-scale, scale),
                        rng.uniform(-scale, scale))
                for _ in range(order + 1)])


def exp_jet(a: Jet) -> Jet:
    """series_exp of one point's jet, as a Jet."""
    e = series_exp(np.array(a.coeffs)[:, None])
    return Jet(e[:, 0])


def truncated(a: Jet, order: int) -> Jet:
    return Jet(a.coeffs[:order + 1])


def max_coeff_diff(a: Jet, b: Jet) -> float:
    assert a.order == b.order
    return max(abs(x - y) for x, y in zip(a.coeffs, b.coeffs))


# -- construction ------------------------------------------------------------


def test_constant_and_variable():
    c = Jet.constant(2 - 1j, 3)
    assert c.coeffs == (2 - 1j, 0j, 0j, 0j)
    v = Jet.variable(0.5, 2)
    assert v.coeffs == (0.5 + 0j, 1 + 0j, 0j)
    v2 = Jet.variable(1j, 4, power=2)
    assert v2.coeffs == (1j, 0j, 1 + 0j, 0j, 0j)


def test_empty_jet_rejected():
    with pytest.raises(ConfigError, match="at least the eps"):
        Jet([])


def test_order_mismatch_rejected():
    with pytest.raises(ConfigError, match="jet order mismatch: 1 vs 2"):
        jet_mul(Jet([1, 2]), Jet([1, 2, 3]))
    with pytest.raises(ConfigError, match="jet order mismatch: 1 vs 2"):
        Jet([1, 2]) + Jet([1, 2, 3])


# -- multiplication ----------------------------------------------------------


def test_mul_conjugate_pair():
    one_plus = Jet([1, 1, 0])
    one_minus = Jet([1, -1, 0])
    assert jet_mul(one_plus, one_minus) == Jet([1, 0, -1])


def test_mul_worked_example():
    a = Jet([1, 2, 3])
    b = Jet([4, 5, 0])
    assert jet_mul(a, b) == Jet([4, 13, 22])


def test_mul_matches_convolution():
    rng = random.Random(11)
    for _ in range(40):
        order = rng.randrange(1, 8)
        a = random_jet(rng, order)
        b = random_jet(rng, order)
        got = jet_mul(a, b)
        want = [sum(a.coeffs[i] * b.coeffs[k - i] for i in range(k + 1))
                for k in range(order + 1)]
        assert max_coeff_diff(got, Jet(want)) < 1e-14


# -- division ----------------------------------------------------------------


def test_div_geometric_series():
    one = Jet([1, 0, 0])
    denom = Jet([1, 1, 0])
    assert jet_div(one, denom) == Jet([1, -1, 1])


def test_div_mul_round_trip():
    rng = random.Random(12)
    for _ in range(40):
        order = rng.randrange(1, 8)
        a = random_jet(rng, order)
        b = random_jet(rng, order)
        b = b + Jet.constant(2.0, order)  # keep the divisor away from zero
        assert max_coeff_diff(jet_div(jet_mul(a, b), b), a) < 1e-14


def test_div_shifts_leading_zeros():
    eps2 = Jet([0, 0, 1])
    one = Jet([1, 0, 0])
    assert jet_div(eps2, one) == eps2


def test_div_by_zero_constant_term():
    with pytest.raises(ConfigError, match="zero constant term"):
        jet_div(Jet([1, 0]), Jet([0, 1]))


# -- exponential -------------------------------------------------------------


def test_exp_zero():
    assert exp_jet(Jet.constant(0.0, 2)) == Jet([1, 0, 0])


def test_exp_eps_maclaurin():
    got = exp_jet(Jet.variable(0.0, 3))
    want = Jet([1, 1, 0.5, 1 / 6])
    assert max_coeff_diff(got, want) < 1e-15


def test_exp_i_pi():
    got = exp_jet(Jet.constant(1j * math.pi, 0))
    assert abs(got.coeffs[0] - (-1)) < 1e-15


def test_exp_matches_scalar_on_tail():
    rng = random.Random(13)
    for _ in range(20):
        a = random_jet(rng, 4)
        got = exp_jet(a)
        # e^{a0} * exp(tail) expanded via repeated multiplication
        tail = Jet((0j,) + a.coeffs[1:])
        series = Jet.constant(1.0, 4)
        term = Jet.constant(1.0, 4)
        for k in range(1, 5):
            term = jet_mul(term, tail) / k
            series = series + term
        want = cmath.exp(a.coeffs[0]) * series
        assert max_coeff_diff(got, want) < 1e-13


# -- even-leading square root ------------------------------------------------


def test_sqrt_even_pure_eps_square():
    assert jet_sqrt_even(Jet([0, 0, 1, 0])) == Jet([0, 1, 0, 0])


def test_sqrt_even_worked_example():
    got = jet_sqrt_even(Jet([4, 4, 0]))
    assert max_coeff_diff(got, Jet([2, 1, -0.25])) < 1e-15


def test_sqrt_even_shifted_series():
    got = jet_sqrt_even(Jet([0, 0, 1, 0, 1]))
    assert max_coeff_diff(got, Jet([0, 1, 0, 0.5, 0])) < 1e-15


def test_sqrt_even_square_identity():
    rng = random.Random(14)
    for _ in range(40):
        order = rng.randrange(0, 8)
        a = random_jet(rng, order) + Jet.constant(3.0, order)
        r = jet_sqrt_even(a)
        assert max_coeff_diff(jet_mul(r, r), a) < 1e-12


def test_sqrt_even_rejects_odd_leading():
    with pytest.raises(ConfigError, match="even leading index, got 1"):
        jet_sqrt_even(Jet([0, 1, 0]))


def test_sqrt_even_rejects_zero():
    with pytest.raises(ConfigError, match="square root of the zero jet"):
        jet_sqrt_even(Jet([0, 0, 0]))


# -- ring laws ---------------------------------------------------------------


def test_ring_laws():
    rng = random.Random(15)
    for _ in range(60):
        order = rng.randrange(0, 7)
        a = random_jet(rng, order)
        b = random_jet(rng, order)
        c = random_jet(rng, order)
        assert max_coeff_diff(jet_mul(a, b), jet_mul(b, a)) < 1e-13
        assert max_coeff_diff(jet_mul(jet_mul(a, b), c),
                              jet_mul(a, jet_mul(b, c))) < 1e-13
        assert max_coeff_diff(jet_mul(a, b + c),
                              jet_mul(a, b) + jet_mul(a, c)) < 1e-13
        assert max_coeff_diff((a + b) - b, a) < 1e-13


# -- series utilities --------------------------------------------------------


def test_truncation_consistency_under_arithmetic():
    # computing at high order then truncating equals computing at low order
    rng = random.Random(17)
    for _ in range(20):
        hi = random_jet(rng, 6)
        lo = truncated(hi, 3)
        assert max_coeff_diff(truncated(exp_jet(hi), 3), exp_jet(lo)) < 1e-12
        other_hi = random_jet(rng, 6)
        other_lo = truncated(other_hi, 3)
        assert max_coeff_diff(truncated(jet_mul(hi, other_hi), 3),
                              jet_mul(lo, other_lo)) < 1e-12
