"""Dense grid evaluation, structured export, and heatmap rendering.

Grids are row-major with y as the outer axis and x fastest.  The nodes
are evaluated in dt_engine.chunk_points-node pieces of that order, in
this process or on a process pool that starts at most one process per
chunk; a node's value does not depend on its chunk, so a pooled grid is
bitwise identical to a serial one.  The CSV and binary exports are both
written from one node table.
"""
from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from functools import partial

import numpy as np

from .dt_engine import DtConfig, chunk_points, evaluate_points
from .errors import ConfigError
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


def _build_colormap() -> np.ndarray:
    pos, colors = zip(*COLORMAP_ANCHORS)
    steps = np.arange(256) / 255.0
    rgb = [np.interp(steps, pos, channel) for channel in zip(*colors)]
    return np.rint(rgb).T.astype(np.uint8)


_COLORMAP = _build_colormap()
COLORMAP_TABLE = tuple(map(tuple, _COLORMAP.tolist()))
MASK_COLOR = (0, 0, 0)


@dataclass
class FieldGrid:
    spec: GridSpec
    q1: np.ndarray
    q2: np.ndarray
    mask: np.ndarray

    # np.hypot rounds as Python's abs(complex) does; np.abs does not
    @property
    def abs_q1(self) -> np.ndarray:
        return np.hypot(self.q1.real, self.q1.imag)

    @property
    def abs_q2(self) -> np.ndarray:
        return np.hypot(self.q2.real, self.q2.imag)

    @property
    def singular_count(self) -> int:
        return int(np.count_nonzero(self.mask))


def _eval_nodes(background, config, profile, spec, span):
    """(q1, q2) of the grid nodes span[0] <= k < span[1] in row-major
    order; the worker entry point.  A gap is NaN."""
    xs = np.array(spec.xs())
    ys = np.array(spec.ys())
    k = np.arange(*span)
    points = np.column_stack([xs[k % spec.nx], ys[k // spec.nx],
                              np.full(k.size, spec.t)])
    q1, q2, _ = evaluate_points(background, config, profile, points)
    return q1, q2


def evaluate_grid(background: SeedBackground, config: DtConfig,
                  profile: DeformationProfile, spec: GridSpec,
                  workers: int = 1) -> FieldGrid:
    """Every node of the grid, on up to `workers` processes but never more
    than one per chunk, and in this process when that is one."""
    size = spec.nx * spec.ny
    chunk = chunk_points(config)
    chunks = -(-size // chunk)
    procs = min(workers, chunks)
    run = partial(_eval_nodes, background, config, profile, spec)
    if procs <= 1:
        q1, q2 = run((0, size))
    else:
        # imported here, as its ~20 ms import buys nothing for a grid that
        # runs in this process
        from concurrent.futures import ProcessPoolExecutor
        # chunk-aligned spans, about four per process
        per = chunk * -(-chunks // (procs * 4))
        spans = [(s, min(s + per, size)) for s in range(0, size, per)]
        with ProcessPoolExecutor(max_workers=procs) as pool:
            parts = list(pool.map(run, spans))
        q1, q2 = (np.concatenate(p) for p in zip(*parts))
    shape = (spec.ny, spec.nx)
    q1, q2 = q1.reshape(shape), q2.reshape(shape)
    # NaN marks exactly the gaps: a value is never NaN
    return FieldGrid(spec=spec, q1=q1, q2=q2, mask=np.isnan(q1))


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def _node_table(grid: FieldGrid) -> np.ndarray:
    """The 8 export columns of every node, shape (ny*nx, 8), y outer and
    x fastest; a masked node is NaN in all six field columns."""
    x, y = np.meshgrid(grid.spec.xs(), grid.spec.ys())
    table = np.empty((x.size, 8))
    table[:, 0] = x.ravel()
    table[:, 1] = y.ravel()
    for col, q, a in ((2, grid.q1, grid.abs_q1), (5, grid.q2, grid.abs_q2)):
        table[:, col] = q.real.ravel()
        table[:, col + 1] = q.imag.ravel()
        table[:, col + 2] = a.ravel()
    table[grid.mask.ravel(), 2:] = np.nan
    return table


def export_field(grid: FieldGrid, path: str, format: str = "csv") -> None:
    if format == "csv":
        _export_csv(grid, path)
    elif format == "f64bin":
        _export_binary(grid, path)
    else:
        raise ConfigError(f"unknown export format {format!r}")


def _export_csv(grid: FieldGrid, path: str) -> None:
    lines = [CSV_HEADER]
    lines += [",".join(map(repr, row)) for row in _node_table(grid).tolist()]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _export_binary(grid: FieldGrid, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(BINARY_MAGIC)
        fh.write(struct.pack("<II", grid.spec.nx, grid.spec.ny))
        fh.write(_node_table(grid).astype("<f8").tobytes())


def load_binary_field(path: str):
    """Read an f64bin export back as (nx, ny, array of shape (ny*nx, 8))."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != BINARY_MAGIC:
        raise ConfigError(f"{path} is not a field export (bad magic)")
    if len(blob) < 12:
        raise ConfigError(f"{path} has {len(blob)} bytes of a 12-byte header")
    nx, ny = struct.unpack_from("<II", blob, 4)
    size = 12 + 64 * nx * ny
    if len(blob) != size:
        raise ConfigError(f"{path} has {len(blob)} bytes, where its "
                          f"{nx}x{ny} header needs {size}")
    data = np.frombuffer(blob, dtype="<f8", offset=12).reshape(ny * nx, 8)
    return nx, ny, data


# ---------------------------------------------------------------------------
# heatmap rendering
# ---------------------------------------------------------------------------


def render_heatmap(grid: FieldGrid, path: str) -> None:
    """8-bit RGB PNG of |q1|, scaled from its least to its greatest
    unmasked value; top image row is y_max, masked black."""
    data = grid.abs_q1
    valid = ~grid.mask
    if valid.any():
        vmin = float(data[valid].min())
        vmax = float(data[valid].max())
    else:
        vmin = vmax = 0.0
    span = vmax - vmin
    idx = np.full(data.shape, 128)
    if span > 0.0:
        # np.rint rounds half to even, as Python's round does
        scaled = np.where(valid, 255.0 * (data - vmin) / span, 0.0)
        idx = np.clip(np.rint(scaled), 0, 255).astype(int)
    rgb = _COLORMAP[idx]
    rgb[grid.mask] = MASK_COLOR
    _write_png(path, rgb[::-1])


def _png_chunk(tag: bytes, payload: bytes) -> bytes:
    crc = zlib.crc32(tag + payload) & 0xFFFFFFFF
    return struct.pack(">I", len(payload)) + tag + payload + struct.pack(">I", crc)


def _write_png(path: str, rgb: np.ndarray) -> None:
    """8-bit RGB PNG of a (height, width, 3) array, top row first."""
    height, width, _ = rgb.shape
    # each scanline starts with filter byte 0
    raw = np.pad(rgb.reshape(height, -1), ((0, 0), (1, 0))).tobytes()
    header = struct.pack(">IIBBBBB", width, height, 8, 2, 0, 0, 0)
    blob = (b"\x89PNG\r\n\x1a\n"
            + _png_chunk(b"IHDR", header)
            + _png_chunk(b"IDAT", zlib.compress(raw, 9))
            + _png_chunk(b"IEND", b""))
    with open(path, "wb") as fh:
        fh.write(blob)
