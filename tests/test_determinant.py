"""Linear-algebra kernel: determinants (exact cases, cofactor oracle,
scaling robustness) and the refined stacked solve (Cramer's rule,
rational oracle, gaps at singular or non-finite input)."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from flwave import ConfigError, SquareMatrix, det
from flwave.numerics import NON_FINITE, ZERO_PIVOT, solve_stack


def random_matrix(rng, n, scale=1.0):
    return SquareMatrix(
        [[complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))
          for _ in range(n)] for _ in range(n)])


def cofactor_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0j
    sign = 1.0
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += sign * rows[0][j] * cofactor_det(minor)
        sign = -sign
    return total


def identity(n):
    return SquareMatrix([[float(i == j) for j in range(n)] for i in range(n)])


def test_identity():
    assert det(identity(4)) == 1


def test_diagonal():
    m = SquareMatrix([[2, 0, 0], [0, 3j, 0], [0, 0, -1]])
    assert det(m) == -6j


def test_non_square_rejected():
    # a ConfigError, which is a ValueError
    with pytest.raises(ConfigError):
        SquareMatrix([[1, 2], [3, 4], [5, 6]])
    with pytest.raises(ConfigError):
        SquareMatrix([])


def test_matches_cofactor_expansion():
    rng = random.Random(21)
    for _ in range(25):
        m = random_matrix(rng, 6)
        want = cofactor_det(m.rows)
        got = det(m)
        assert abs(got - want) < 1e-10 * max(1.0, abs(want))


def test_multiplicative():
    rng = random.Random(22)
    for _ in range(25):
        a = random_matrix(rng, 5)
        b = random_matrix(rng, 5)
        ab = SquareMatrix([[sum(a.rows[i][k] * b.rows[k][j] for k in range(5))
                            for j in range(5)] for i in range(5)])
        lhs = det(ab)
        rhs = det(a) * det(b)
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))


def test_singular_returns_zero():
    m = SquareMatrix([[1, 2, 3], [2, 4, 6], [0, 1, -1]])
    assert det(m) == 0


def test_row_swap_flips_sign():
    m = SquareMatrix([[0, 1], [1, 0]])
    assert det(m) == -1


def test_power_of_two_row_scaling_is_exact():
    rng = random.Random(23)
    base = random_matrix(rng, 4)
    d0 = det(base)
    rows = [list(r) for r in base.rows]
    rows[2] = [c * 2.0 ** 40 for c in rows[2]]
    d1 = det(SquareMatrix(rows))
    assert d1 == d0 * 2.0 ** 40


def test_extreme_scale_spread_survives():
    # row scales 10^-100 .. 10^200 spread the entries over 300 orders of
    # magnitude; det scales by exactly their product, 10^200
    rng = random.Random(24)
    m = random_matrix(rng, 4)
    rows = [[c * 10.0 ** (100 * i) for c in r]
            for i, r in zip(range(-1, 3), m.rows)]
    got = det(SquareMatrix(rows))
    assert got != 0
    assert math.isfinite(abs(got))
    want = cofactor_det(m.rows) * 1e200
    assert abs(got - want) < 1e-9 * abs(want)


def test_scales_whose_product_overflows_cancel():
    # a plain product of the pivots passes 1e600 before the 1e-300 rows
    # bring it back; equilibrating first keeps every partial product small
    rng = random.Random(26)
    m = random_matrix(rng, 4)
    scales = (1e300, 1e300, 1e-300, 1e-300)
    rows = [[c * s for c in r] for s, r in zip(scales, m.rows)]
    got = det(SquareMatrix(rows))
    want = cofactor_det(m.rows)
    assert abs(got - want) < 1e-9 * abs(want)


def test_solve_matches_cramer_ratios():
    rng = random.Random(25)
    for _ in range(10):
        m = random_matrix(rng, 5)
        rhs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
               for _ in range(5)]
        z, why = solve_stack(np.array([m.rows]), np.array([rhs]))
        assert why[0] == 0
        d = det(m)
        for j in range(5):
            rows = [list(r) for r in m.rows]
            for i in range(5):
                rows[i][j] = rhs[i]
            want = det(SquareMatrix(rows)) / d
            assert abs(z[0, j] - want) < 1e-12 * max(1.0, abs(want))


def test_refined_solve_is_exact_on_an_ill_conditioned_system():
    # an 8x8 Hilbert matrix (condition ~1e10) rounded to doubles; the
    # exact solution of that rounded system comes from rational arithmetic
    n = 8
    a = [[1.0 / (i + j + 1) for j in range(n)] for i in range(n)]
    b = [1.0] * n
    want = _exact_solve([[Fraction(v) for v in r] for r in a],
                        [Fraction(v) for v in b])
    z, why = solve_stack(np.array([a], complex), np.array([b], complex))
    assert why[0] == 0
    for got, w in zip(z[0], want):
        assert abs(got.imag) == 0.0
        assert abs(Fraction(got.real) - w) <= 2 ** -52 * abs(w)
    # unrefined double-precision elimination is far from that
    plain = np.linalg.solve(np.array(a), np.array(b))
    assert max(abs(Fraction(float(p)) - w) / abs(w)
               for p, w in zip(plain, want)) > 1e-10


def test_solve_marks_a_zero_pivot():
    # det == 1 exactly, but the elimination remainder 2^-80 rounds away:
    # the factorization meets a zero pivot and the solve refuses
    big = 2.0 ** 40
    m = SquareMatrix([[big, big + 1], [big - 1, big]])
    assert det(m) == 0
    z, why = solve_stack(np.array([m.rows]), np.array([[1, 0]], complex))
    assert why.tolist() == [ZERO_PIVOT]
    assert np.isnan(z).all()


def test_solve_marks_non_finite_input():
    a = np.array([[[1, 0], [0, float("inf")]], identity(2).rows], complex)
    b = np.array([[1, 1], [1, float("nan")]], complex)
    z, why = solve_stack(a, b)
    assert why.tolist() == [NON_FINITE, NON_FINITE]
    assert np.isnan(z).all()


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
