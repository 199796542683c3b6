"""Truncated power-series (jet) arithmetic and stacked complex linear algebra.

Jets carry the lambda-derivative information that the generalized Darboux
rows consume: a jet of order n is the tuple of coefficients of
eps^0 .. eps^n, and every operation is exact modulo eps^(n+1).  The
static jets of a chart are `Jet` values; the jets of many points at once
are complex arrays of shape (order + 1, P), one column per point.

Products along the point axis are formed from real and imaginary parts:
numpy's complex `*` picks a loop by array layout, and the loops round
differently, so a point's value would depend on the chunk it came in.

A stack of small systems is equilibrated by powers of two and inverted
by one stacked LAPACK call, which inverts each system as if it were
alone: a system with a non-finite entry is solved as the identity and
marked, and one with a zero pivot gets a NaN inverse of its own, so
neither moves its neighbours.  Each system's condition number, from the
inverse, decides how it is refined against residuals computed with
error-free transformations (Dekker's TwoProd, Knuth's TwoSum; Ogita,
Rump & Oishi, SIAM J. Sci. Comput. 26, 2005):

- every system whose condition number bounds the error takes its
  corrections from the inverse, and stops once that bound is met (Demmel
  et al., ACM TOMS 32, 2006), which most systems meet after one residual;
- one whose condition number is too large to bound anything is a gap
  (Higham, Accuracy and Stability of Numerical Algorithms, ch. 7, 12).

The large temporaries of an evaluation chunk live in a per-thread
workspace (`scratch`): flat buffers that only grow and are reused from
chunk to chunk, so a warm evaluation allocates none of them afresh.  The
largest are formed a block of BLOCK_WORDS at a time, and the solve's
buffers reuse those of the jets and the assembly, so the workspace does
not grow with the chunk.
"""
from __future__ import annotations

import cmath
import math
import threading
from functools import lru_cache

import numpy as np

from .errors import ConfigError

# relative floor under which low-index coefficients are treated as exact zeros
# when locating the leading term of a series
ZERO_COEFF_RATIO = 1e-12

# why a sample is a gap; 0 means it is a value
NON_FINITE, ZERO_PIVOT, NO_CONVERGENCE, ILL_CONDITIONED = 2, 3, 4, 5
GAP_REASONS = {
    NON_FINITE: "non-finite matrix, right-hand side or result, as where "
                "an exponential overflows",
    ZERO_PIVOT: "zero pivot: the matrix is singular",
    NO_CONVERGENCE: "iterative refinement did not converge",
    ILL_CONDITIONED: "condition too large to bound the error",
}


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
# per-thread workspace
# ---------------------------------------------------------------------------


class _Workspace(threading.local):
    """One thread's scratch memory: a flat float64 buffer per name, which
    only grows."""

    def __init__(self):
        self.buffers = {}


_workspace = _Workspace()
# arrays of fewer float64 words are allocated afresh: the allocator
# recycles them without faulting, and a view costs more than they do
SCRATCH_MIN_WORDS = 4096
# float64 words in the largest array of one block: series_mul's products
# and _residual's real-form systems are formed for as many points as fit,
# so these temporaries keep this size however many points a chunk holds
BLOCK_WORDS = 32768
# the solve's buffers, each by the jets' or the assembly's buffer whose
# memory it takes: a chunk's jets and assembly are done, and hold nothing
# in their buffers, before its solve begins, and the solve's equilibration
# and norms are done before its residuals.  "stack0" holds the stack's
# inverse
_SHARED = {"equilibrate": "assembly", "norm": "assembly", "neg": "assembly",
           "neg_hi": "series_mul", "neg_lo": "cmul_tmp",
           "res_errs": "products", "stack0": "cmul"}


def scratch(name: str, shape: tuple, dtype=float) -> np.ndarray:
    """An uninitialised float or complex array of this shape, over this
    thread's buffer `name` if it has at least SCRATCH_MIN_WORDS words.

    The next call with the same name in the same thread may hand out the
    same memory, so each name belongs to one kernel, which writes the
    array before reading it and returns nothing that aliases it.  A name
    of the solve takes the buffer _SHARED maps it to, one of the jets' or
    the assembly's, which are never in use at the same time.  A buffer
    grows to the largest shape asked of it and is then kept, so repeated
    chunks reuse their memory instead of faulting it back in.
    """
    words = math.prod(shape) * (2 if dtype is complex else 1)
    if words < SCRATCH_MIN_WORDS:
        return np.empty(shape, dtype)
    name = _SHARED.get(name, name)
    buf = _workspace.buffers.get(name)
    if buf is None or len(buf) < words:
        buf = _workspace.buffers[name] = np.empty(words)
    return buf[:words].view(dtype).reshape(shape)


# ---------------------------------------------------------------------------
# jets of many points: complex arrays of shape (order + 1, P)
# ---------------------------------------------------------------------------


def cmul(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """Elementwise complex a * b with broadcasting, rounded as Python's
    complex product is, whatever the layout; into out when given (it must
    not overlap a or b)."""
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    # callers give out for large products: then re comes from the
    # workspace too
    re = np.multiply(ar, br,
                     None if out is None else scratch("cmul", out.shape))
    tmp = np.multiply(ai, bi, scratch("cmul_tmp", re.shape))
    np.subtract(re, tmp, re)
    if out is None:
        out = np.empty(re.shape, complex)
    out.real = re
    np.multiply(ar, bi, re)
    out.imag = np.add(re, np.multiply(ai, br, tmp), re)
    return out


def rmul(a: np.ndarray, r) -> np.ndarray:
    """Complex a times real r, part by part."""
    re = a.real * r
    out = np.empty(re.shape, complex)
    out.real = re
    out.imag = a.imag * r
    return out


def polar(r, th):
    """r exp(i th) for real r and angles th, from cos and sin; a complex
    scalar for a float th, an array for an array."""
    c = np.cos(th)
    out = np.empty(c.shape, complex)
    out.real = r * c
    out.imag = r * np.sin(th)
    return out[()]


def _frozen(*jets) -> np.ndarray:
    """Static jets, or plain numbers, stacked into one read-only array:
    row i holds the coefficients of jets[i]."""
    out = np.array([getattr(j, "coeffs", j) for j in jets])
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def _triangle(k: int):
    """Read-only (d, j) with d + j < k, d outer: the products of static
    and point coefficients that a Cauchy product of order k - 1 adds."""
    i = np.arange(k)
    d, j = np.nonzero(np.add.outer(i, i) < k)
    d.flags.writeable = j.flags.writeable = False
    return d, j


def series_mul(s: np.ndarray, phi: np.ndarray, out=None) -> np.ndarray:
    """Cauchy products of static jets s (..., K) with point jets phi
    (..., K, P), leading axes broadcast: (..., K, P), into out when given.

    Only the K(K+1)/2 products s[d] * phi[j] with d + j < K are formed,
    so a non-finite high coefficient of phi cannot reach a lower one.
    Coefficient n adds its products for d = 0 up to n, starting from 0,
    as jet_mul does.  The products are formed for as many points at a
    time as BLOCK_WORDS holds.
    """
    k, p = phi.shape[-2:]
    ds, js = _triangle(k)
    lead = np.broadcast(s[..., 0], phi[..., 0, 0]).shape
    out = np.empty(lead + (k, p), complex) if out is None else out
    sd = s.take(ds, axis=-1)[..., None]
    step = BLOCK_WORDS // (2 * math.prod(lead) * len(ds)) or 1
    for at in range(0, p, step):
        cols = phi[..., at:at + step].take(js, axis=-2)
        terms = cmul(sd, cols, scratch(
            "series_mul", lead + cols.shape[-2:], complex))
        # d = 0 starts each sum at 0 + x, as jet_mul's (-0 becomes +0)
        o = np.add(terms[..., :k, :], 0, out=out[..., at:at + step])
        for d in range(1, k):
            first = d * k - d * (d - 1) // 2
            o[..., d:, :] += terms[..., first:first + k - d, :]
    return out


def series_exp(a: np.ndarray) -> np.ndarray:
    """exp of point jets a (..., K, P).

    The constant term is exp(re) (cos im + i sin im); the others follow
    from the recurrence e' = e * a'.  Where exp(re) overflows, the jet
    holds inf or NaN, and so does every Omega_1 it reaches.
    """
    k = a.shape[-2]
    e = np.empty_like(a)
    # contiguous inputs, so that every width takes the same exp/cos/sin loop
    r = np.exp(np.ascontiguousarray(a[..., 0, :].real))
    im = np.ascontiguousarray(a[..., 0, :].imag)
    e[..., 0, :].real = r * np.cos(im)
    e[..., 0, :].imag = r * np.sin(im)
    ja = rmul(a[..., 1:, :], np.arange(1.0, k)[:, None]) if k > 1 else None
    for n in range(1, k):
        terms = cmul(ja[..., :n, :], e[..., n - 1::-1, :])
        acc = terms[..., 0, :]
        for i in range(1, n):
            acc = acc + terms[..., i, :]
        e[..., n, :].real = acc.real / n
        e[..., n, :].imag = acc.imag / n
    return e


# ---------------------------------------------------------------------------
# stacked linear algebra: equilibration, LAPACK, refinement
# ---------------------------------------------------------------------------

# refinement stops once the last correction is this small next to z
REFINE_TOL = 2.0 ** -50
# near rho = 0.05 (kappa 1e13 for n = 6) each correction shrinks the error
# only by about kappa u, and three corrections can fall short there
MAX_CORRECTIONS = 4
# where rho = 8 n u kappa is below INVERSE_RHO the inverse's own norm is
# trusted to weigh each correction; where it is not below MAX_RHO no error
# bound exists, and the system is a gap
INVERSE_RHO = 2.0 ** -20
MAX_RHO = 0.5

_SPLITTER = 134217729.0  # 2**27 + 1: Dekker's split into two 26-bit halves


class SquareMatrix:
    """Small dense complex matrix, row-major."""

    __slots__ = ("dim", "rows")

    def __init__(self, rows):
        rows = [list(map(complex, r)) for r in rows]
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ConfigError("matrix must be square and non-empty")
        self.dim = n
        self.rows = rows


def _magnitude(c: np.ndarray) -> np.ndarray:
    """max(|re|, |im|): exact, and finite wherever c is."""
    return np.maximum(np.abs(c.real), np.abs(c.imag))


def _across_rows(f, m: np.ndarray) -> np.ndarray:
    """f.reduce(m, axis=1) of a (P, n) array for the binary ufunc f, from
    a copy laid out with P fastest: numpy reduces a short inner axis with
    one inner-loop call per row."""
    return f.reduce(np.ascontiguousarray(m.T), axis=0)


def _pow2_exponents(m: np.ndarray) -> np.ndarray:
    """p with m = f * 2^p, f in [0.5, 1) (0 where m is 0), kept where 2^-p
    is a normal double so that scaling by it is exact."""
    return np.minimum(np.maximum(np.frexp(m)[1], -1022), 1022)


def _equilibrate(a: np.ndarray, out=None):
    """Scale the rows, then the columns, of each matrix of a (P, n, n)
    stack by powers of two, so that each one's largest entry lands in
    [0.5, 1), into out when given (it must not overlap a).

    Returns the scaled stack, the row and column exponents (entry (i, j)
    is divided by 2**(row[i] + col[j]), exactly) and whether each
    matrix's entries are all finite.  The magnitudes and the scaled real
    and imaginary parts are formed in this thread's workspace.
    """
    if out is None:
        out = np.empty_like(a)
    # laid out as a is, so that each pass runs along a's memory: the points
    # run fastest in a stack that _assemble gathered
    p, n, _ = a.shape
    if a.strides[0] < a.strides[2]:
        re, im = scratch("equilibrate", (2, n, n, p)).transpose(0, 3, 1, 2)
    else:
        re, im = scratch("equilibrate", (2, p, n, n))
    mag = np.maximum(np.abs(a.real, re), np.abs(a.imag, im), out=re)
    row_mag = np.maximum.reduce(mag, axis=2)
    row = _pow2_exponents(row_mag)
    rs = np.ldexp(1.0, -row)[:, :, None]
    col = _pow2_exponents(np.maximum.reduce(np.multiply(mag, rs, mag),
                                            axis=1))
    cs = np.ldexp(1.0, -col)[:, None, :]
    # two steps, as a single factor 2**-(row + col) could overflow
    out.real = np.multiply(np.multiply(a.real, rs, re), cs, re)
    out.imag = np.multiply(np.multiply(a.imag, rs, im), cs, im)
    # a non-finite magnitude makes its row's maximum non-finite
    finite = np.isfinite(_across_rows(np.maximum, row_mag))
    return out, row, col, finite


def _split(v: np.ndarray, hi: np.ndarray, lo: np.ndarray):
    """Dekker's split v = hi + lo, each with at most 26 significant bits,
    written into hi and lo."""
    np.multiply(_SPLITTER, v, hi)
    np.subtract(hi, v, lo)
    np.subtract(hi, lo, hi)
    np.subtract(v, hi, lo)
    return hi, lo


def _two_sum(a: np.ndarray, b: np.ndarray, s: np.ndarray, e: np.ndarray):
    """s + e == a + b exactly, s = fl(a + b) (Knuth), written into s and
    e; b is overwritten."""
    np.add(a, b, s)
    bb = np.subtract(s, a, e)
    np.subtract(b, bb, b)
    np.subtract(s, bb, e)
    np.subtract(a, e, e)
    np.add(e, b, e)


def _neg_real_form(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """-[[re, -im], [im, re]] of a (P, n, n) stack, minus the real matrix
    acting on [x.re, x.im], written into out (2n, P, 2n) column by column:
    out[c, p, r] is entry (r, c) of system p's."""
    n = a.shape[1]
    at = a.transpose(2, 0, 1)
    np.negative(at.real, out[:n, :, :n])
    out[n:, :, n:] = out[:n, :, :n]
    out[n:, :, :n] = at.imag
    np.negative(at.imag, out[:n, :, n:])
    return out


def _residual(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """b - A x of each system, as if computed in twice the working
    precision and then rounded, for as many systems at a time as
    BLOCK_WORDS holds of -A in real form.

    -A in real form, column by column (_neg_real_form), and its Dekker
    split are built in this thread's workspace.  TwoProd turns each
    product into an exact pair; a TwoSum tree of fixed shape adds a row's
    products, their errors are summed beside it, and b comes last.  The
    tree's levels alternate between the products' buffers and the
    split's, which are free once the errors are formed; with columns
    first, each level works on whole contiguous columns.
    """
    p, n = b.shape
    step = BLOCK_WORDS // (2 * n) ** 2 or 1
    if p > step:
        out = np.empty(b.shape, complex)
        for s in range(0, p, step):
            part = slice(s, s + step)
            out[part] = _residual(a[part], b[part], x[part])
        return out
    shape = (2 * n, p, 2 * n)
    neg = _neg_real_form(a, scratch("neg", shape))
    nh, nl = _split(neg, scratch("neg_hi", shape), scratch("neg_lo", shape))
    xr = np.empty((2 * n, p, 1))
    xr[:n, :, 0] = x.real.T
    xr[n:, :, 0] = x.imag.T
    xh, xl = _split(xr, np.empty(xr.shape), np.empty(xr.shape))
    terms = np.multiply(neg, xr, neg)
    errs = np.multiply(nh, xh, scratch("res_errs", shape))
    errs -= terms
    # the split's halves take the products they are last read for
    errs += np.multiply(nh, xl, nh)
    errs += np.multiply(nl, xh, nh)
    errs += np.multiply(nl, xl, nl)
    here, there = ("neg", "res_errs"), ("neg_hi", "neg_lo")
    while len(terms) > 1:
        half, odd = divmod(len(terms), 2)
        end = len(terms) - odd
        s = scratch(there[0], (half + odd, p, 2 * n))
        e = scratch(there[1], s.shape)
        _two_sum(terms[0:end:2], terms[1:end:2], s[:half], e[:half])
        e[:half] += errs[0:end:2]
        e[:half] += errs[1:end:2]
        if odd:  # the last column waits for the next level
            s[half] = terms[-1]
            e[half] = errs[-1]
        terms, errs = s, e
        here, there = there, here
    br = np.empty((p, 2 * n))
    br[:, :n] = b.real
    br[:, n:] = b.imag
    s, e = np.empty(br.shape), np.empty(br.shape)
    _two_sum(br, terms[0], s, e)
    np.add(errs[0], e, e)
    s += e
    out = np.empty(b.shape, complex)
    out.real = s[:, :n]
    out.imag = s[:, n:]
    return out


def _inf_norm(m: np.ndarray) -> np.ndarray:
    """max_i sum_j _magnitude(m[p, i, j]) for each matrix of a (P, n, n)
    stack: at most sqrt(2) below the infinity norm.  The rows are
    summed column by column, so that a matrix's norm does not depend on
    the layout of its stack."""
    re, im = scratch("norm", (2,) + m.shape)
    mag = np.maximum(np.abs(m.real, re), np.abs(m.imag, im), out=re)
    rows = mag[:, :, 0].copy()
    for j in range(1, m.shape[2]):
        rows += mag[:, :, j]
    return _across_rows(np.maximum, rows)


def _inverse(a: np.ndarray, out: np.ndarray):
    """numpy.linalg.inv of a (P, n, n) stack, written into out, and which
    systems met a zero pivot.  inv itself has no out argument, so this
    calls the gufunc under it, which inverts each system as if it were
    alone: LAPACK reports a zero pivot for each system separately, and the
    gufunc fills that system's inverse with NaN and goes on to the next.
    A pivot whose reciprocal overflows can leave an inverse all NaN too,
    so a system whose inverse starts with NaN counts as singular where
    slogdet, which runs the same LAPACK factorization again, gives it
    sign 0, as it does for a zero pivot alone."""
    with np.errstate(all="ignore"):
        inv = np.linalg._umath_linalg.inv(a, signature="D->D", out=out)
        singular = np.isnan(inv[:, 0, 0].real)
        if singular.any():
            sel = singular.nonzero()[0]
            singular[sel] = np.linalg.slogdet(a[sel])[0] == 0
    return inv, singular


def _inverse_correction(inv: np.ndarray, r: np.ndarray) -> np.ndarray:
    # einsum, not matmul: BLAS would round a product by the stack's size
    return np.einsum("pij,pj->pi", inv, r)


def _refine(a, inv, b, x, col_scale, slack):
    """z = diag(col_scale) x of each system a x = b of an equilibrated
    stack, refined from the iterate x, and why each gap is one.

    Each step adds inv r to x, r being the residual (_residual) and inv
    the system's inverse.  A system is done once slack * dz <=
    REFINE_TOL * max|z|, dz being its last correction on z's own scale;
    the others take another step, at most MAX_CORRECTIONS in all.  Those
    whose iterate is not finite, or whose slack is NaN, or that do not
    converge, are gaps.
    """
    why = np.zeros(len(b), np.int8)
    keep = None
    for _ in range(MAX_CORRECTIONS):
        if keep is not None:
            sel = keep.nonzero()[0]
            if not sel.size:
                break
            at, a, inv, b, x, col_scale, slack = (
                v[sel] for v in (at, a, inv, b, x, col_scale, slack))
        dx = _inverse_correction(inv, _residual(a, b, x))
        x = x + dx
        zs = rmul(x, col_scale)
        # a non-finite entry makes its row's maximum non-finite
        dz = slack * _across_rows(np.maximum, _magnitude(dx) * col_scale)
        zmax = _across_rows(np.maximum, _magnitude(zs))
        ok = np.isfinite(dz) & np.isfinite(zmax)
        done = ok & (dz <= REFINE_TOL * zmax)
        if np.logical_and.reduce(done):
            if keep is None:  # every system is done after one step
                return zs, why
            z[at] = zs
            return z, why
        if keep is None:
            z, at = np.full(b.shape, np.nan, complex), np.arange(len(b))
        z[at[done]] = zs[done]
        why[at[~ok]] = NO_CONVERGENCE
        keep = ok & ~done
    else:
        why[at[keep]] = NO_CONVERGENCE
    return z, why


def solve_stack(a: np.ndarray, b: np.ndarray):
    """z with a[p] z[p] = b[p] for each system of a (P, n, n) stack, and
    why each gap is one (an int8 code per system, 0 for a value).

    The stack is equilibrated by powers of two (_equilibrate), so that
    its systems solve for x = diag(2**col) z, and a system with a
    non-finite entry is replaced by I x = 0, solved beside the others and
    marked at the end.  One stacked inverse of the whole stack (_inverse)
    finds the systems with a zero pivot and gives each system's kappa =
    ||A||_inf ||inv(A)||_inf (_inf_norm) and rho = 8 n u kappa, u =
    2**-53, taken as a bound on ||I - inv(A) A||_inf.

    Every system starts from x = inv(A) b and is corrected by inv(A) r
    for the residual r (_residual), at most MAX_CORRECTIONS times
    (_refine).  The error left in x after a correction dx is at most
    rho / (1 - rho) ||dx||_inf.  That bound holds in the equilibrated
    unknowns x, not in z; the rule weighs it on z's own scale: a system
    stops once slack dz <= REFINE_TOL max|z|, dz being its largest
    |correction| of z.

    - Where rho < INVERSE_RHO, the slack is rho / (1 - rho), and most
      systems stop after one residual.
    - Where INVERSE_RHO <= rho < MAX_RHO, the inverse's norm is not
      trusted to weigh the correction, and the slack is 1: a system
      stops once its last correction is small.
    - Where rho is not below MAX_RHO (or is NaN, from an inverse that is
      not finite), no error bound exists: the system is an
      ILL_CONDITIONED gap.

    A non-finite entry, a zero pivot, a non-finite iterate, a system that
    does not converge and an ill-conditioned one are gaps, and their z is
    NaN.
    """
    with np.errstate(all="ignore"):
        # the equilibrated stack is in the workspace buffer "stack1", its
        # inverse in "stack0"
        a, row, col, finite = _equilibrate(
            a, scratch("stack1", a.shape, complex))
        b = rmul(b, np.ldexp(1.0, -row))
        finite &= _across_rows(np.logical_and, np.isfinite(b))
        all_finite = np.logical_and.reduce(finite)
        if not all_finite:
            a[~finite] = np.eye(a.shape[1])
            b[~finite] = 0
        inv, singular = _inverse(a, scratch("stack0", a.shape, complex))
        rho = 8 * a.shape[1] * 2.0 ** -53 * _inf_norm(a) * _inf_norm(inv)
        col_scale = np.ldexp(1.0, -col)
        # a NaN slack (rho not below MAX_RHO) leaves after the first step
        slack = np.where(rho < INVERSE_RHO, rho / (1 - rho),
                         np.where(rho < MAX_RHO, 1.0, np.nan))
        z, why = _refine(a, inv, b, _inverse_correction(inv, b), col_scale,
                         slack)
        why[~(rho < MAX_RHO)] = ILL_CONDITIONED
        why[singular] = ZERO_PIVOT
        if not all_finite:
            why[~finite] = NON_FINITE
            z[~finite] = np.nan
    return z, why


def det(m: SquareMatrix) -> complex:
    """Determinant of a small complex matrix.  Singular input returns 0.

    LAPACK's LU of the power-of-two equilibrated matrix gives the
    determinant of unit-scale entries; the scale is applied last, so
    entry scales whose product overflows still give a determinant of
    representable size.
    """
    a, row, col, _ = _equilibrate(np.array([m.rows], complex))
    d = complex(np.linalg.det(a[0]))
    k = int(row.sum() + col.sum())
    return complex(math.ldexp(d.real, k), math.ldexp(d.imag, k))
