"""Truncated power-series (jet) arithmetic and small complex linear algebra.

Jets carry the lambda-derivative information that the generalized Darboux
rows consume: a jet of order n is the tuple of coefficients of
eps^0 .. eps^n, and every operation is exact modulo eps^(n+1).  Small
dense complex matrices are factored by partially pivoted LU after
power-of-two equilibration; the one factorization gives determinants and
linear solves, and a solve is refined against exactly computed residuals.
"""
from __future__ import annotations

import cmath
import math

from .errors import ConfigError, SingularPointError

# relative floor under which low-index coefficients are treated as exact zeros
# when locating the leading term of a series
ZERO_COEFF_RATIO = 1e-12

# cmath.exp overflows just above exp(709.78)
_EXP_ARG_LIMIT = 709.0


class Jet:
    """Complex truncated power series in one formal perturbation variable.

    ``coeffs[k]`` multiplies eps^k.  Jets of different order never mix
    implicitly; callers align orders first (a mismatch raises
    ConfigError).  Plain numbers promote to constant jets of the
    partner's order.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = tuple(complex(c) for c in coeffs)
        if not cs:
            raise ConfigError("a jet needs at least the eps^0 coefficient")
        object.__setattr__(self, "coeffs", cs)

    @classmethod
    def constant(cls, value, order: int) -> "Jet":
        return cls((complex(value),) + (0j,) * order)

    @classmethod
    def variable(cls, center, order: int, power: int = 1) -> "Jet":
        """The jet of center + eps**power truncated at ``order``."""
        cs = [0j] * (order + 1)
        cs[0] = complex(center)
        if power <= order:
            cs[power] += 1.0
        return cls(cs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __repr__(self):
        return f"Jet({list(self.coeffs)!r})"

    def __eq__(self, other):
        return isinstance(other, Jet) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other) -> "Jet":
        if isinstance(other, Jet):
            if other.order != self.order:
                raise ConfigError(
                    f"jet order mismatch: {self.order} vs {other.order}")
            return other
        if isinstance(other, (int, float, complex)):
            return Jet.constant(other, self.order)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Jet(tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Jet(tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Jet(tuple(b - a for a, b in zip(self.coeffs, o.coeffs)))

    def __neg__(self):
        return Jet(tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            z = complex(other)
            return Jet(tuple(a * z for a in self.coeffs))
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return jet_mul(self, o)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float, complex)):
            z = complex(other)
            return Jet(tuple(a / z for a in self.coeffs))
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return jet_div(self, o)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return jet_div(o, self)

    def conjugate(self) -> "Jet":
        """Coefficientwise conjugate; equals the jet at the conjugate center
        because the perturbation variable is real."""
        return Jet(tuple(a.conjugate() for a in self.coeffs))

    # -- series utilities ---------------------------------------------------

    def truncated(self, order: int) -> "Jet":
        if order > self.order:
            raise ConfigError(
                f"cannot extend a jet of order {self.order} to {order}")
        return Jet(self.coeffs[: order + 1])

    def shifted_down(self, k: int) -> "Jet":
        """Divide by eps^k.  The k lowest coefficients must be zero up to the
        relative floor; the result is k orders shorter."""
        if k == 0:
            return self
        if k > self.order:
            raise ConfigError(
                f"cannot shift a jet of order {self.order} down by {k}")
        scale = max(abs(c) for c in self.coeffs)
        tol = ZERO_COEFF_RATIO * scale
        for c in self.coeffs[:k]:
            if abs(c) > tol:
                raise ConfigError(
                    f"shift down by {k} hits a nonzero coefficient {c!r}")
        return Jet(self.coeffs[k:])


def jet_mul(a: Jet, b: Jet) -> Jet:
    """Cauchy product truncated at the shared order."""
    if a.order != b.order:
        raise ConfigError(f"jet order mismatch: {a.order} vs {b.order}")
    ac, bc = a.coeffs, b.coeffs
    n = len(ac)
    out = [0j] * n
    for i, ai in enumerate(ac):
        if ai == 0:
            continue
        for j in range(n - i):
            out[i + j] += ai * bc[j]
    return Jet(out)


def jet_div(a: Jet, b: Jet) -> Jet:
    """Series division; b must have a nonzero eps^0 coefficient."""
    if a.order != b.order:
        raise ConfigError(f"jet order mismatch: {a.order} vs {b.order}")
    b0 = b.coeffs[0]
    if b0 == 0:
        raise ConfigError("division by a jet with zero constant term")
    n = len(a.coeffs)
    q = [0j] * n
    for k in range(n):
        s = a.coeffs[k]
        for j in range(k):
            s -= q[j] * b.coeffs[k - j]
        q[k] = s / b0
    return Jet(q)


def jet_exp(a: Jet) -> Jet:
    """exp of a jet: scalar exp of the constant term times the Maclaurin
    series of the nilpotent tail, via the recurrence e' = e * a'."""
    a0 = a.coeffs[0]
    if a0.real > _EXP_ARG_LIMIT:
        raise SingularPointError(
            f"exp argument real part {a0.real:.6g} overflows")
    e0 = cmath.exp(a0)
    n = len(a.coeffs)
    e = [0j] * n
    e[0] = e0
    for k in range(1, n):
        s = 0j
        for j in range(1, k + 1):
            s += j * a.coeffs[j] * e[k - j]
        e[k] = s / k
    return Jet(e)


def jet_sqrt_even(a: Jet) -> Jet:
    """Principal square root of a jet whose leading term sits at an even
    index 2m; the result leads at index m.

    Coefficients below the leading index smaller than ZERO_COEFF_RATIO
    times the largest coefficient count as zero.  An odd leading index or
    an identically zero jet has no square root in the truncated ring.
    """
    scale = max(abs(c) for c in a.coeffs)
    if scale == 0.0:
        raise ConfigError("square root of the zero jet is degenerate")
    tol = ZERO_COEFF_RATIO * scale
    lead = None
    for i, c in enumerate(a.coeffs):
        if abs(c) > tol:
            lead = i
            break
    if lead is None:
        raise ConfigError("square root of the zero jet is degenerate")
    if lead % 2 != 0:
        raise ConfigError(
            f"square root needs an even leading index, got {lead}")
    m = lead // 2
    n = len(a.coeffs)
    # unit-leading part, padded with zeros at the top
    ah = list(a.coeffs[lead:]) + [0j] * lead
    r = [0j] * n
    r[0] = cmath.sqrt(ah[0])
    for k in range(1, n):
        s = ah[k]
        for j in range(1, k):
            s -= r[j] * r[k - j]
        r[k] = s / (2 * r[0])
    out = [0j] * n
    for k in range(n - m):
        out[k + m] = r[k]
    return Jet(out)


# ---------------------------------------------------------------------------
# linear algebra: one LU factorization behind det and the refined solve
# ---------------------------------------------------------------------------

# refinement stops once the last correction is this small next to z
REFINE_TOL = 2.0 ** -50
MAX_CORRECTIONS = 3

_SPLITTER = 134217729.0  # 2**27 + 1: Dekker's split into two 26-bit halves


class SquareMatrix:
    """Small dense complex matrix, row-major."""

    __slots__ = ("dim", "rows")

    def __init__(self, rows):
        rows = [list(map(complex, r)) for r in rows]
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("matrix must be square and non-empty")
        self.dim = n
        self.rows = rows


def _pow2_exponent(m: float) -> int:
    """p with 2^p nearest m > 0 (ties toward the larger power), kept where
    2^-p is a normal double so that scaling by it is exact."""
    f, e = math.frexp(m)  # m = f * 2^e, f in [0.5, 1)
    p = e if f >= 0.75 else e - 1
    return min(max(p, -1022), 1022)


def _magnitude(values) -> float:
    """Largest |c|, or largest max(|re|, |im|) where a modulus overflows."""
    try:
        return max(map(abs, values))
    except OverflowError:
        return max(max(abs(c.real), abs(c.imag)) for c in values)


def _equilibrate(rows):
    """Scale rows then columns by powers of two near their largest entry.

    Returns the scaled copy and the row and column exponents: entry (i, j)
    is divided by 2**(row[i] + col[j]).  Powers of two make the scaling
    exact.
    """
    work = []
    row_exp = []
    for r in rows:
        m = _magnitude(r)
        p = _pow2_exponent(m) if m else 0
        row_exp.append(p)
        s = 2.0 ** -p
        work.append([c * s for c in r])
    col_exp = []
    for j, col in enumerate(zip(*work)):
        m = _magnitude(col)
        p = _pow2_exponent(m) if m else 0
        col_exp.append(p)
        if p:
            s = 2.0 ** -p
            for r in work:
                r[j] *= s
    return work, row_exp, col_exp


def _lu(work):
    """Partially pivoted LU of a mutable row list, in place.

    Afterwards row i of ``work`` holds row perm[i] of the input, factored:
    U on and above the diagonal, L's multipliers below it.  Returns
    (perm, sign of the permutation), or None at a zero pivot.  The pivot
    is the largest-magnitude candidate and ties keep the lowest row
    index, so the factorization is deterministic.
    """
    n = len(work)
    perm = list(range(n))
    sign = 1.0
    for k in range(n):
        piv, pmag = k, abs(work[k][k])
        for i in range(k + 1, n):
            m = abs(work[i][k])
            if m > pmag:
                piv, pmag = i, m
        if pmag == 0.0:
            return None
        if piv != k:
            work[k], work[piv] = work[piv], work[k]
            perm[k], perm[piv] = perm[piv], perm[k]
            sign = -sign
        row_k = work[k]
        pivot = row_k[k]
        for i in range(k + 1, n):
            row_i = work[i]
            f = row_i[k] / pivot
            row_i[k] = f
            if f == 0:
                continue
            for j in range(k + 1, n):
                row_i[j] -= f * row_k[j]
    return perm, sign


def _lu_solve(lu, perm, b) -> list:
    """x with A x = b, from the factors _lu left of A."""
    n = len(lu)
    y = [b[p] for p in perm]
    for i in range(1, n):
        row = lu[i]
        s = y[i]
        for j in range(i):
            s -= row[j] * y[j]
        y[i] = s
    for i in range(n - 1, -1, -1):
        row = lu[i]
        s = y[i]
        for j in range(i + 1, n):
            s -= row[j] * y[j]
        y[i] = s / row[i]
    return y


# Dekker's split of both parts of c: t = _SPLITTER * c, hi = t - (t - c),
# lo = c - hi gives c = hi + lo with at most 26 significant bits in each
# part of hi and of lo.

def _split_rows(rows) -> list:
    """Per row, (j, -re_hi, -re_lo, im_hi, im_lo, -im_hi, -im_lo) for
    every nonzero entry: the factors _residual multiplies."""
    out = []
    for r in rows:
        terms = []
        for j, c in enumerate(r):
            if c:
                t = _SPLITTER * c
                hi = t - (t - c)
                lo = c - hi
                terms.append((j, -hi.real, -lo.real, hi.imag, lo.imag,
                              -hi.imag, -lo.imag))
        out.append(terms)
    return out


def _residual(split_rows, b, x) -> list:
    """b - A x with each entry correctly rounded.

    Every product of two 26-bit halves is exact, and math.fsum adds the
    exact terms with a single rounding.
    """
    xs = []
    for c in x:
        t = _SPLITTER * c
        hi = t - (t - c)
        lo = c - hi
        xs.append((hi.real, lo.real, hi.imag, lo.imag))
    out = []
    for bi, row in zip(b, split_rows):
        re = [bi.real]
        im = [bi.imag]
        for j, nrh, nrl, ih, il, nih, nil in row:
            xrh, xrl, xih, xil = xs[j]
            re += (nrh * xrh, nrh * xrl, nrl * xrh, nrl * xrl,
                   ih * xih, ih * xil, il * xih, il * xil)
            im += (nrh * xih, nrh * xil, nrl * xih, nrl * xil,
                   nih * xrh, nih * xrl, nil * xrh, nil * xrl)
        out.append(complex(math.fsum(re), math.fsum(im)))
    return out


def _finite(values) -> bool:
    return all(map(cmath.isfinite, values))


def solve(m: SquareMatrix, rhs) -> list:
    """z with m z = rhs, refined until the last correction is negligible.

    One LU factorization of the power-of-two equilibrated matrix gives z;
    each correction solves for the exactly computed residual with the same
    factors.  Raises SingularPointError at a zero pivot, a non-finite
    entry or result, or when MAX_CORRECTIONS corrections leave a
    correction above REFINE_TOL * max|z|.
    """
    rows = m.rows
    if not (all(map(_finite, rows)) and _finite(rhs)):
        raise SingularPointError("non-finite matrix or right-hand side entry")
    lu, row_exp, col_exp = _equilibrate(rows)
    b = [v * 2.0 ** -p for v, p in zip(rhs, row_exp)]
    split_rows = _split_rows(lu)
    factors = _lu(lu)
    if factors is None:
        raise SingularPointError("zero pivot: the matrix is singular")
    perm, _ = factors
    # the scaled system solves for x with z = diag(2**-col_exp) x; the
    # stopping rule weighs corrections on z's own scale
    col_scale = [2.0 ** -p for p in col_exp]
    x = _lu_solve(lu, perm, b)
    for _ in range(MAX_CORRECTIONS):
        if not _finite(x):
            break
        try:
            dx = _lu_solve(lu, perm, _residual(split_rows, b, x))
        except (OverflowError, ValueError):  # fsum met inf - inf or overflow
            break
        x = [u + v for u, v in zip(x, dx)]
        z = [u * s for u, s in zip(x, col_scale)]
        if not _finite(z):
            break
        if _magnitude([d * s for d, s in zip(dx, col_scale)]) \
                <= REFINE_TOL * _magnitude(z):
            return z
    raise SingularPointError("iterative refinement did not converge")


def det(m: SquareMatrix) -> complex:
    """Determinant of a small complex matrix.  Singular input returns 0.

    The pivots of the equilibrated matrix are multiplied first and the
    power-of-two scale is applied last, so entry scales whose product
    overflows still give a determinant of representable size.
    """
    work, row_exp, col_exp = _equilibrate(m.rows)
    factors = _lu(work)
    if factors is None:
        return 0j
    d = factors[1] + 0j
    for i, row in enumerate(work):
        d *= row[i]
    k = sum(row_exp) + sum(col_exp)
    return complex(math.ldexp(d.real, k), math.ldexp(d.imag, k))
