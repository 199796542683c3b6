"""Independent correctness arbiters.

Nothing here reuses the construction machinery: residuals come from
central finite differences of sampled fields, the first-order rogue wave
has its own closed-form evaluation, and the Lax matrices are written out
from their printed entries.  Agreement between these checks and the
determinant pipeline is the package's correctness argument.  The
engine's sampler is recognised only to hand it the field points of a
batch of stencils or of a search lookahead in one call; any other
point -> FieldSample callable is sampled one point at a time.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .dt_engine import FieldSample, FieldSampler
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


def _sample_many(sampler, points):
    """q1 and q2 at each point as complex arrays, NaN at gaps.  The
    engine's sampler takes all the points in one call; any other sampler
    is called once per point."""
    if isinstance(sampler, FieldSampler):
        # (P, 3) even for no points: the sampler reads a 1-D array as one point
        s = sampler(np.array(points, float).reshape(-1, 3))
        return s.q1, s.q2
    q = np.full((2, len(points)), complex("nan"))
    for k, point in enumerate(points):
        try:
            s = sampler(point)
        except SingularPointError:
            continue
        q[:, k] = s.q1, s.q2
    return q[0], q[1]


def _stencils(sampler, points, offsets) -> list:
    """For each point and its list of (dx, dy, dt) offsets (offsets[k]
    for points[k], all of one length), the FieldSample at point + each
    offset, all from one call of the engine's sampler.  A gap inside a
    stencil leaves its check unformed, so it raises NumericError (not a
    SingularPointError) naming the first check point whose stencil hits
    one, and the first offset that does."""
    q1, q2 = _sample_many(sampler, [(x + dx, y + dy, t + dt)
                                    for (x, y, t), offs in zip(points, offsets)
                                    for dx, dy, dt in offs])
    n = len(offsets[0]) if offsets else 0
    gaps = np.isnan(q1) | np.isnan(q2)
    if gaps.any():
        k, o = divmod(int(np.argmax(gaps)), n)
        raise NumericError(f"singular sample at offset {offsets[k][o]} "
                           f"of check point {points[k]}")
    samples = [FieldSample(a, b) for a, b in zip(q1.tolist(), q2.tolist())]
    return [samples[k * n:(k + 1) * n] for k in range(len(points))]


# pde_residual's stencil: the base point, the two x neighbours, and the
# (x, t) and (x, y) crosses, in units of the step
_PDE_OFFSETS = ((0, 0, 0), (1, 0, 0), (-1, 0, 0),
                (1, 0, 1), (1, 0, -1), (-1, 0, 1), (-1, 0, -1),
                (1, 1, 0), (1, -1, 0), (-1, 1, 0), (-1, -1, 0))


def pde_residual(sampler, points, step: float = 1e-3):
    """Left-hand sides of both component equations by central differences.

    Mixed partials use the symmetric 4-point cross; q_x the 2-point
    central difference.  Everything is second order in the step.  At one
    point (x, y, t), its ResidualReport; at a (P, 3) array of points, a
    list of P reports, whose 11 P samples are one call of the engine's
    sampler.  step is one step for every point, or P steps, one per
    point.  A report does not depend on the other points of its call:
    the arithmetic is per point, in Python complex.
    """
    one = np.ndim(points) == 1
    points = ([tuple(points)] if one
              else [tuple(p) for p in np.asarray(points, float).tolist()])
    steps = ([step] * len(points) if np.isscalar(step)
             else np.broadcast_to(step, len(points)).tolist())
    stencils = _stencils(sampler, points,
                         [[(i * h, j * h, k * h) for i, j, k in _PDE_OFFSETS]
                          for h in steps])

    def second(h, ppa, pma, mpa, mma):
        return (ppa - pma - mpa + mma) / (4 * h * h)

    reports = []
    for point, h, (c, xp, xm, pp_t, pm_t, mp_t, mm_t,
                   pp_y, pm_y, mp_y, mm_y) in zip(points, steps, stencils):
        q1x = (xp.q1 - xm.q1) / (2 * h)
        q2x = (xp.q2 - xm.q2) / (2 * h)
        q1xt = second(h, pp_t.q1, pm_t.q1, mp_t.q1, mm_t.q1)
        q2xt = second(h, pp_t.q2, pm_t.q2, mp_t.q2, mm_t.q2)
        q1xy = second(h, pp_y.q1, pm_y.q1, mp_y.q1, mm_y.q1)
        q2xy = second(h, pp_y.q2, pm_y.q2, mp_y.q2, mm_y.q2)

        a1 = abs(c.q1) ** 2
        a2 = abs(c.q2) ** 2
        r1 = (1j * q1xt - 1j * q1xy + 1j * c.q1 + a1 * q1x + 2 * q1x
              + 0.5 * a2 * q1x + 0.5 * c.q1 * c.q2.conjugate() * q2x)
        r2 = (1j * q2xt - 1j * q2xy + 1j * c.q2 + a2 * q2x + 2 * q2x
              + 0.5 * a1 * q2x + 0.5 * c.q2 * c.q1.conjugate() * q1x)
        reports.append(ResidualReport(r1, r2, h, point))
    return reports[0] if one else reports


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
    c, xp, xm = _stencils(field_sampler, [point],
                          [[(0.0, 0.0, 0.0), (h, 0.0, 0.0), (-h, 0.0, 0.0)]])[0]
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
    # U needs q_x at each (y, t) shift, one more level down in x; V needs
    # q at the x shifts.  All 13 samples are one stencil.
    shifts = ((0.0, h), (0.0, -h), (h, 0.0), (-h, 0.0), (0.0, 0.0))
    offsets = list(dict.fromkeys(
        [(dx, dy, dt) for dy, dt in shifts for dx in (h, -h)]
        + [(dx, 0.0, 0.0) for dx in (h, -h, 0.0)]))
    samples = dict(zip(offsets,
                       _stencils(field_sampler, [point], [offsets])[0]))

    def U_at(dy: float, dt: float) -> np.ndarray:
        fp, fm = samples[(h, dy, dt)], samples[(-h, dy, dt)]
        return lax_U(lam, (fp.q1 - fm.q1) / (2 * h), (fp.q2 - fm.q2) / (2 * h))

    def V_at(dx: float) -> np.ndarray:
        f = samples[(dx, 0.0, 0.0)]
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
    """Argmax of |q1|: a coarse grid scan, then steps to the best of the
    four neighbours that improves on the current point, halving the step
    when none does.

    The scan is one sampler call.  The steps read a memo of every |q1|
    sampled so far, keyed by the exact (x, y) floats.  A step whose four
    neighbours are not all in it fetches, in one call, every new point
    this step and the next can read: the four neighbours, the four at
    half the step (if it halves) and the four around each neighbour (if
    it moves), at most 16 points.  So a default 40-step search is at most
    1 + 20 calls, no point is sampled twice, and as a point's value does
    not depend on its call, the path is the one that one call per step
    takes.  Ties go to the first point: in the scan the lowest x, then
    the lowest y; among neighbours +x, -x, +y, -y.  Returns ((x, y),
    |q1|), |q1| being the sampler's value at (x, y) bit for bit.
    """
    seen = {}

    def fetch(points):
        new = list(dict.fromkeys(p for p in points if p not in seen))
        q1, _ = _sample_many(sampler, [(x, y, region.t) for x, y in new])
        # np.hypot rounds as Python's abs(complex) does
        v = np.hypot(q1.real, q1.imag)
        v[np.isnan(v)] = -math.inf
        seen.update(zip(new, v.tolist()))

    def cross(x, y, sx, sy):
        return [(x + sx, y), (x - sx, y), (x, y + sy), (x, y - sy)]

    coarse = [(x, y) for x in region.xs() for y in region.ys()]
    fetch(coarse)
    values = [seen[p] for p in coarse]
    k = values.index(max(values))
    if values[k] == -math.inf:
        raise NumericError("no usable samples in the search region")
    (bx, by), best_val = coarse[k], values[k]
    sx = (region.x_max - region.x_min) / (region.nx - 1)
    sy = (region.y_max - region.y_min) / (region.ny - 1)
    for i in range(refine_iters):
        steps = cross(bx, by, sx, sy)
        if not all(p in seen for p in steps):
            ahead = list(steps)
            if i + 1 < refine_iters:
                # what the next step reads if this one halves or moves
                ahead += cross(bx, by, sx * 0.5, sy * 0.5)
                for x, y in steps:
                    ahead += cross(x, y, sx, sy)
            fetch(ahead)
        values = [seen[p] for p in steps]
        k = values.index(max(values))
        if values[k] > best_val:
            (bx, by), best_val = steps[k], values[k]
        else:
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
