"""Dense grid evaluation, structured export, and heatmap rendering.

Grids are row-major with y as the outer axis and x fastest.  Parallel
evaluation chunks whole rows across processes and reassembles them by
index, so a parallel run is bitwise identical to a serial one.
"""
from __future__ import annotations

import os
import struct
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dt_engine import DtConfig, evaluate_solution
from .errors import ConfigError, OverflowRangeError, SingularPointError
from .model import DeformationProfile, GridSpec, SeedBackground

CSV_HEADER = "x,y,re_q1,im_q1,abs_q1,re_q2,im_q2,abs_q2"
BINARY_MAGIC = b"FLW1"

# 256-entry colormap interpolated from these anchors (position, r, g, b);
# fixed table so rendered images are bit-reproducible
COLORMAP_ANCHORS = (
    (0.00, (13, 8, 135)),
    (0.25, (126, 3, 168)),
    (0.50, (204, 71, 120)),
    (0.75, (248, 149, 64)),
    (1.00, (240, 249, 33)),
)


def _build_colormap() -> tuple[tuple[int, int, int], ...]:
    table = []
    for i in range(256):
        pos = i / 255.0
        for (p0, c0), (p1, c1) in zip(COLORMAP_ANCHORS, COLORMAP_ANCHORS[1:]):
            if pos <= p1 or (p1, c1) == COLORMAP_ANCHORS[-1]:
                f = 0.0 if p1 == p0 else (pos - p0) / (p1 - p0)
                f = min(max(f, 0.0), 1.0)
                table.append(tuple(int(round(a + (b - a) * f))
                                   for a, b in zip(c0, c1)))
                break
    return tuple(table)


COLORMAP_TABLE = _build_colormap()
MASK_COLOR = (0, 0, 0)


@dataclass
class FieldGrid:
    spec: GridSpec
    q1: np.ndarray
    q2: np.ndarray
    mask: np.ndarray

    @property
    def abs_q1(self) -> np.ndarray:
        return np.abs(self.q1)

    @property
    def abs_q2(self) -> np.ndarray:
        return np.abs(self.q2)

    @property
    def singular_count(self) -> int:
        return int(np.count_nonzero(self.mask))


def resolve_workers(requested: int | None = None) -> int:
    """Worker count: explicit request, capped by FLWAVE_THREADS if set."""
    cap = os.environ.get("FLWAVE_THREADS")
    if requested is None:
        requested = os.cpu_count() or 1
    workers = max(1, int(requested))
    if cap is not None:
        try:
            workers = min(workers, max(1, int(cap)))
        except ValueError:
            raise ConfigError(f"FLWAVE_THREADS={cap!r} is not an integer") from None
    return workers


def _eval_rows(background, config, profile, spec, j_lo, j_hi):
    """Evaluate grid rows j_lo..j_hi-1; the worker entry point.  A node
    that is singular or whose exponentials overflow is masked."""
    xs = spec.xs()
    ys = spec.ys()
    out = []
    for j in range(j_lo, j_hi):
        y = ys[j]
        row = []
        for x in xs:
            try:
                s = evaluate_solution(background, config, profile,
                                      (x, y, spec.t))
                row.append((s.q1, s.q2, False))
            except (SingularPointError, OverflowRangeError):
                row.append((complex("nan"), complex("nan"), True))
        out.append(row)
    return j_lo, out


def evaluate_grid(background: SeedBackground, config: DtConfig,
                  profile: DeformationProfile, spec: GridSpec,
                  workers: int = 1) -> FieldGrid:
    ny, nx = spec.ny, spec.nx
    q1 = np.empty((ny, nx), dtype=complex)
    q2 = np.empty((ny, nx), dtype=complex)
    mask = np.zeros((ny, nx), dtype=bool)

    def place(j_lo, rows):
        for dj, row in enumerate(rows):
            j = j_lo + dj
            for i, (v1, v2, bad) in enumerate(row):
                q1[j, i] = v1
                q2[j, i] = v2
                mask[j, i] = bad

    if workers <= 1 or ny < 2:
        _, rows = _eval_rows(background, config, profile, spec, 0, ny)
        place(0, rows)
    else:
        chunk = max(1, ny // (workers * 4))
        spans = [(j, min(j + chunk, ny)) for j in range(0, ny, chunk)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_eval_rows, background, config, profile,
                                   spec, lo, hi)
                       for lo, hi in spans]
            for fut in futures:
                j_lo, rows = fut.result()
                place(j_lo, rows)
    return FieldGrid(spec=spec, q1=q1, q2=q2, mask=mask)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def _node_rows(grid: FieldGrid):
    """Yield the 8-column tuple for every node, y outer, x fastest."""
    xs = grid.spec.xs()
    ys = grid.spec.ys()
    nan = float("nan")
    for j in range(grid.spec.ny):
        y = ys[j]
        for i in range(grid.spec.nx):
            if grid.mask[j, i]:
                yield (xs[i], y, nan, nan, nan, nan, nan, nan)
            else:
                v1 = complex(grid.q1[j, i])
                v2 = complex(grid.q2[j, i])
                yield (xs[i], y, v1.real, v1.imag, abs(v1),
                       v2.real, v2.imag, abs(v2))


def export_field(grid: FieldGrid, path: str, format: str = "csv") -> None:
    if format == "csv":
        _export_csv(grid, path)
    elif format == "f64bin":
        _export_binary(grid, path)
    else:
        raise ConfigError(f"unknown export format {format!r}")


def _export_csv(grid: FieldGrid, path: str) -> None:
    lines = [CSV_HEADER]
    for vals in _node_rows(grid):
        lines.append(",".join(repr(float(v)) for v in vals))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _export_binary(grid: FieldGrid, path: str) -> None:
    buf = bytearray()
    buf += BINARY_MAGIC
    buf += struct.pack("<II", grid.spec.nx, grid.spec.ny)
    pack = struct.Struct("<8d").pack
    for vals in _node_rows(grid):
        buf += pack(*vals)
    with open(path, "wb") as fh:
        fh.write(bytes(buf))


def load_binary_field(path: str):
    """Read an f64bin export back as (nx, ny, array of shape (ny*nx, 8))."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != BINARY_MAGIC:
        raise ConfigError(f"{path} is not a field export (bad magic)")
    nx, ny = struct.unpack_from("<II", blob, 4)
    data = np.frombuffer(blob, dtype="<f8", offset=12).reshape(ny * nx, 8)
    return nx, ny, data


# ---------------------------------------------------------------------------
# heatmap rendering
# ---------------------------------------------------------------------------


def render_heatmap(grid: FieldGrid, path: str, channel: str = "abs_q1",
                   value_range: tuple[float, float] | None = None) -> None:
    """8-bit RGB PNG of |q1| or |q2|; top image row is y_max, masked black."""
    if channel == "abs_q1":
        data = grid.abs_q1
    elif channel == "abs_q2":
        data = grid.abs_q2
    else:
        raise ConfigError(f"unknown channel {channel!r}")
    valid = ~grid.mask
    if value_range is not None:
        vmin, vmax = float(value_range[0]), float(value_range[1])
    elif valid.any():
        vmin = float(data[valid].min())
        vmax = float(data[valid].max())
    else:
        vmin = vmax = 0.0
    span = vmax - vmin
    ny, nx = data.shape
    rows = []
    for j in range(ny - 1, -1, -1):
        row = bytearray()
        for i in range(nx):
            if grid.mask[j, i]:
                row += bytes(MASK_COLOR)
            elif span <= 0.0:
                row += bytes(COLORMAP_TABLE[128])
            else:
                idx = int(round(255.0 * (data[j, i] - vmin) / span))
                row += bytes(COLORMAP_TABLE[min(255, max(0, idx))])
        rows.append(bytes(row))
    _write_png(path, nx, ny, rows)


def _png_chunk(tag: bytes, payload: bytes) -> bytes:
    crc = zlib.crc32(tag + payload) & 0xFFFFFFFF
    return struct.pack(">I", len(payload)) + tag + payload + struct.pack(">I", crc)


def _write_png(path: str, width: int, height: int, rows) -> None:
    raw = b"".join(b"\x00" + row for row in rows)
    header = struct.pack(">IIBBBBB", width, height, 8, 2, 0, 0, 0)
    blob = (b"\x89PNG\r\n\x1a\n"
            + _png_chunk(b"IHDR", header)
            + _png_chunk(b"IDAT", zlib.compress(raw, 9))
            + _png_chunk(b"IEND", b""))
    with open(path, "wb") as fh:
        fh.write(blob)
