"""Independent correctness arbiters.

Nothing here reuses the construction machinery: residuals come from
central finite differences of sampled fields, the first-order rogue wave
has its own closed-form evaluation, and the Lax matrices are written out
from their printed entries.  Agreement between these checks and the
determinant pipeline is the package's correctness argument.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, SingularPointError
from .grid_render import FieldGrid
from .model import GridSpec


def closed_form_rw1(point) -> complex:
    """First-order rogue wave on the unit plane wave, components equal."""
    x, y, t = point
    num = (4 - 4j - 25 * t * t + 10 * ((-1 + 1j) - y) * t
           - y * y + (-2 + 2j) * y - x * x + (2 + 6j) * x)
    den = (4 - 4j + 25 * t * t + 10 * t * ((1 - 1j) + y)
           + y * y + (2 - 2j) * y + x * x + (-2 + 2j) * x)
    scale = (abs(4 - 4j) + 25 * t * t + 10 * abs(t) * (math.sqrt(2) + abs(y))
             + y * y + abs((2 - 2j) * y) + x * x + abs((-2 + 2j) * x))
    if abs(den) < 1e-12 * max(scale, 1.0):
        raise NumericError(f"rogue denominator vanishes at {point!r}")
    return num / den * cmath.exp(0.5j * (-2 * y + 2 * t - x))


@dataclass(frozen=True)
class ResidualReport:
    residual1: complex
    residual2: complex
    step: float
    point: tuple[float, float, float]

    @property
    def max_abs(self) -> float:
        return max(abs(self.residual1), abs(self.residual2))


class _Stencil:
    """Samples a field around a base point.  A gap inside the stencil
    leaves the check unformed, so it raises NumericError (not a
    SingularPointError) naming the offset."""

    def __init__(self, sampler, point):
        self.sampler = sampler
        self.x, self.y, self.t = point

    def __call__(self, dx=0.0, dy=0.0, dt=0.0):
        try:
            return self.sampler((self.x + dx, self.y + dy, self.t + dt))
        except SingularPointError as exc:
            raise NumericError(
                f"singular sample at offset {(dx, dy, dt)}") from exc


def pde_residual(sampler, point, step: float = 1e-3) -> ResidualReport:
    """Left-hand sides of both component equations by central differences.

    Mixed partials use the symmetric 4-point cross; q_x the 2-point
    central difference.  Everything is second order in the step.
    """
    h = step
    s = _Stencil(sampler, point)
    c = s()
    xp, xm = s(dx=h), s(dx=-h)
    pp_t, pm_t = s(dx=h, dt=h), s(dx=h, dt=-h)
    mp_t, mm_t = s(dx=-h, dt=h), s(dx=-h, dt=-h)
    pp_y, pm_y = s(dx=h, dy=h), s(dx=h, dy=-h)
    mp_y, mm_y = s(dx=-h, dy=h), s(dx=-h, dy=-h)

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
    return ResidualReport(r1, r2, step, tuple(point))


# ---------------------------------------------------------------------------
# Lax-pair structure
# ---------------------------------------------------------------------------

SIGMA = np.diag([1.0, -1.0, -1.0]).astype(complex)


def lax_U(lam: complex, q1x: complex, q2x: complex) -> np.ndarray:
    Q = np.array([
        [0, q1x, q2x],
        [-q1x.conjugate(), 0, 0],
        [-q2x.conjugate(), 0, 0],
    ], dtype=complex)
    return -1j * lam * lam * SIGMA + lam * Q


def lax_V(lam: complex, q1: complex, q2: complex) -> np.ndarray:
    m1 = abs(q1) ** 2
    m2 = abs(q2) ** 2
    v0 = np.array([
        [0.5j * (m1 + m2 + 2), 0, 0],
        [0, -1j * (0.5 * m1 + 1), -0.5j * q1.conjugate() * q2],
        [0, -0.5j * q1 * q2.conjugate(), -1j * (0.5 * m2 + 1)],
    ], dtype=complex)
    vm1 = 0.5j * np.array([
        [0, q1, q2],
        [q1.conjugate(), 0, 0],
        [q2.conjugate(), 0, 0],
    ], dtype=complex)
    vm2 = np.diag([-0.25j, 0.25j, 0.25j])
    return v0 + vm1 / lam + vm2 / (lam * lam)


def _phi_vec(phi_sampler, point) -> np.ndarray:
    return np.array(phi_sampler(point), dtype=complex)


def lax_residual(phi_sampler, field_sampler, lam: complex, point,
                 step: float = 1e-4) -> tuple[float, float]:
    """Max norms of Phi_x - U Phi and Phi_t - Phi_y - V Phi.

    phi_sampler returns the eigenfunction triple as three complex values;
    the potential inside U is differentiated from field samples, keeping
    the check independent of how the triple was built.
    """
    h = step
    x, y, t = point
    s = _Stencil(field_sampler, point)
    c = s()
    try:
        phi_c = _phi_vec(phi_sampler, point)
        phi_xp = _phi_vec(phi_sampler, (x + h, y, t))
        phi_xm = _phi_vec(phi_sampler, (x - h, y, t))
        phi_yp = _phi_vec(phi_sampler, (x, y + h, t))
        phi_ym = _phi_vec(phi_sampler, (x, y - h, t))
        phi_tp = _phi_vec(phi_sampler, (x, y, t + h))
        phi_tm = _phi_vec(phi_sampler, (x, y, t - h))
    except SingularPointError as exc:
        raise NumericError("singular eigenfunction sample") from exc
    phi_x = (phi_xp - phi_xm) / (2 * h)
    phi_y = (phi_yp - phi_ym) / (2 * h)
    phi_t = (phi_tp - phi_tm) / (2 * h)
    xp, xm = s(dx=h), s(dx=-h)
    q1x = (xp.q1 - xm.q1) / (2 * h)
    q2x = (xp.q2 - xm.q2) / (2 * h)
    U = lax_U(lam, q1x, q2x)
    V = lax_V(lam, c.q1, c.q2)
    r1 = float(np.abs(phi_x - U @ phi_c).max())
    r2 = float(np.abs(phi_t - phi_y - V @ phi_c).max())
    return r1, r2


def zero_curvature_residual(field_sampler, lam: complex, point,
                            step: float = 1e-3) -> float:
    """Max norm of U_t - U_y - V_x + [U, V] by nested central differences."""
    h = step
    s = _Stencil(field_sampler, point)

    def U_at(dy: float, dt: float) -> np.ndarray:
        # the potential needs q_x at the shifted point, one more level down
        fp = s(dx=h, dy=dy, dt=dt)
        fm = s(dx=-h, dy=dy, dt=dt)
        return lax_U(lam, (fp.q1 - fm.q1) / (2 * h), (fp.q2 - fm.q2) / (2 * h))

    def V_at(dx: float) -> np.ndarray:
        f = s(dx=dx)
        return lax_V(lam, f.q1, f.q2)

    U_t = (U_at(0.0, h) - U_at(0.0, -h)) / (2 * h)
    U_y = (U_at(h, 0.0) - U_at(-h, 0.0)) / (2 * h)
    V_x = (V_at(h) - V_at(-h)) / (2 * h)
    U = U_at(0.0, 0.0)
    V = V_at(0.0)
    Z = U_t - U_y - V_x + U @ V - V @ U
    return float(np.abs(Z).max())


# ---------------------------------------------------------------------------
# extrema diagnostics
# ---------------------------------------------------------------------------


def peak_search(sampler, region: GridSpec, refine_iters: int = 40):
    """Argmax of |q1|: coarse grid scan plus coordinate-descent refinement.

    Ties prefer the lowest x, then the lowest y.  Returns ((x, y), |q1|).
    """
    def probe(x: float, y: float) -> float:
        try:
            return abs(sampler((x, y, region.t)).q1)
        except SingularPointError:
            return -math.inf

    best_val = -math.inf
    best_xy = None
    for x in region.xs():
        for y in region.ys():
            v = probe(x, y)
            if v > best_val:
                best_val, best_xy = v, (x, y)
    if best_xy is None or best_val == -math.inf:
        raise NumericError("no usable samples in the search region")
    bx, by = best_xy
    sx = (region.x_max - region.x_min) / (region.nx - 1)
    sy = (region.y_max - region.y_min) / (region.ny - 1)
    for _ in range(refine_iters):
        moved = False
        for dx, dy in ((sx, 0.0), (-sx, 0.0), (0.0, sy), (0.0, -sy)):
            v = probe(bx + dx, by + dy)
            if v > best_val:
                best_val, bx, by = v, bx + dx, by + dy
                moved = True
        if not moved:
            sx *= 0.5
            sy *= 0.5
    return (bx, by), best_val


def count_local_maxima(grid: FieldGrid, threshold: float) -> int:
    """Strict 8-neighborhood local maxima of |q1| above the threshold."""
    a = grid.abs_q1.copy()
    a[grid.mask] = -math.inf
    c = a[1:-1, 1:-1]
    peaks = (
        (c > a[:-2, :-2]) & (c > a[:-2, 1:-1]) & (c > a[:-2, 2:])
        & (c > a[1:-1, :-2]) & (c > a[1:-1, 2:])
        & (c > a[2:, :-2]) & (c > a[2:, 1:-1]) & (c > a[2:, 2:])
        & (c > threshold)
    )
    return int(np.count_nonzero(peaks))
