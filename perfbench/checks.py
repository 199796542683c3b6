"""Output checks for the benchmark workloads.

Each check takes what the program produced and raises CheckError when
it is wrong.  The checks never compare against a stored copy of earlier
output: they re-derive what they need from an independent closed form,
from the file formats' own definitions, or from properties the method
must have (second-order Richardson convergence, exchange symmetry).
"""
from __future__ import annotations

import struct
import zlib

import numpy as np

CSV_COLUMNS = "x,y,re_q1,im_q1,abs_q1,re_q2,im_q2,abs_q2"
PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"
BIN_MAGIC = b"FLW1"

# halving the step must shrink a second-order residual by about 4
RATIO_LO, RATIO_HI = 0.2, 0.3
CLOSED_FORM_TOL = 1e-8
# q1 and q2 of an exchange-symmetric configuration agree to roundoff;
# measured differences are below 3e-14 on every symmetric panel
SYMMETRY_TOL = 1e-10
# coordinate-descent crest location; the |q1| value is held to 1e-8
CREST_XY_TOL = 1e-4


class CheckError(Exception):
    """A workload output failed one of the benchmark's checks."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


def nodes(spec):
    """Node coordinates as (xs, ys), recomputed from the grid definition."""
    dx = (spec.x_max - spec.x_min) / (spec.nx - 1)
    dy = (spec.y_max - spec.y_min) / (spec.ny - 1)
    xs = np.array([spec.x_min + i * dx for i in range(spec.nx)])
    ys = np.array([spec.y_min + j * dy for j in range(spec.ny)])
    return xs, ys


def no_masked(grid, label: str) -> None:
    count = int(np.count_nonzero(grid.mask))
    require(count == 0, f"{label}: {count} masked nodes on a frozen frame")
    require(np.all(np.isfinite(grid.q1)) and np.all(np.isfinite(grid.q2)),
            f"{label}: non-finite unmasked values")


def matches_closed_form(grid, closed_form, label: str) -> None:
    """q1 and q2 equal the first-order rogue closed form at every node."""
    xs, ys = nodes(grid.spec)
    want = np.array([[closed_form((x, y, grid.spec.t)) for x in xs]
                     for y in ys])
    err = max(float(np.max(np.abs(grid.q1 - want))),
              float(np.max(np.abs(grid.q2 - want))))
    require(err <= CLOSED_FORM_TOL,
            f"{label}: closed-form mismatch {err:.3e} > {CLOSED_FORM_TOL}")


def exchange_symmetric(grid, label: str) -> None:
    err = float(np.max(np.abs(grid.q1 - grid.q2)))
    require(err <= SYMMETRY_TOL,
            f"{label}: |q1 - q2| = {err:.3e} on a symmetric configuration")


def _expected_columns(grid) -> np.ndarray:
    xs, ys = nodes(grid.spec)
    q1 = grid.q1.reshape(-1)
    q2 = grid.q2.reshape(-1)
    return np.column_stack([
        np.tile(xs, grid.spec.ny), np.repeat(ys, grid.spec.nx),
        q1.real, q1.imag, np.abs(q1), q2.real, q2.imag, np.abs(q2)])


def _same_table(got: np.ndarray, grid, what: str) -> None:
    want = _expected_columns(grid)
    require(got.shape == want.shape,
            f"{what}: shape {got.shape}, expected {want.shape}")
    # field components must survive the round trip bit for bit
    for col in (2, 3, 5, 6):
        require(np.array_equal(got[:, col].view(np.uint64),
                               want[:, col].view(np.uint64)),
                f"{what}: column {CSV_COLUMNS.split(',')[col]} differs")
    # coordinates and moduli come from the program's own arithmetic
    for col in (0, 1, 4, 7):
        require(np.allclose(got[:, col], want[:, col], rtol=1e-14,
                            atol=1e-14),
                f"{what}: column {CSV_COLUMNS.split(',')[col]} differs")


def binary_readback(path: str, grid, load_binary_field) -> None:
    """The f64bin file holds exactly the field, in the documented layout."""
    with open(path, "rb") as fh:
        blob = fh.read()
    nx, ny = grid.spec.nx, grid.spec.ny
    require(blob[:4] == BIN_MAGIC, f"{path}: bad magic {blob[:4]!r}")
    require(struct.unpack_from("<II", blob, 4) == (nx, ny),
            f"{path}: header does not say {nx}x{ny}")
    require(len(blob) == 12 + 64 * nx * ny,
            f"{path}: {len(blob)} bytes, expected {12 + 64 * nx * ny}")
    rnx, rny, data = load_binary_field(path)
    require((rnx, rny) == (nx, ny), f"{path}: read back as {rnx}x{rny}")
    _same_table(np.asarray(data, dtype=float), grid, path)


def csv_readback(path: str, grid) -> None:
    """The CSV parses back, row for row, to the same values."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    require(lines and lines[0] == CSV_COLUMNS, f"{path}: bad header")
    rows = [line.split(",") for line in lines[1:]]
    require(all(len(r) == 8 for r in rows), f"{path}: ragged rows")
    try:
        got = np.array([[float(v) for v in r] for r in rows])
    except ValueError as exc:
        raise CheckError(f"{path}: {exc}") from None
    _same_table(got.reshape(-1, 8), grid, path)


def png_valid(path: str, nx: int, ny: int) -> None:
    """Signature, chunk CRCs, an nx-by-ny 8-bit RGB header, full pixel data."""
    with open(path, "rb") as fh:
        blob = fh.read()
    require(blob[:8] == PNG_SIGNATURE, f"{path}: bad PNG signature")
    off, tags, idat, header = 8, [], b"", None
    while off < len(blob):
        require(off + 12 <= len(blob), f"{path}: truncated chunk")
        (length,) = struct.unpack_from(">I", blob, off)
        tag = blob[off + 4:off + 8]
        payload = blob[off + 8:off + 8 + length]
        require(len(payload) == length, f"{path}: truncated {tag!r}")
        (crc,) = struct.unpack_from(">I", blob, off + 8 + length)
        require(crc == zlib.crc32(tag + payload) & 0xFFFFFFFF,
                f"{path}: CRC mismatch in {tag!r}")
        tags.append(tag)
        if tag == b"IHDR":
            header = struct.unpack(">IIBBBBB", payload)
        elif tag == b"IDAT":
            idat += payload
        off += 12 + length
    require(tags[:1] == [b"IHDR"] and tags[-1:] == [b"IEND"],
            f"{path}: chunk order {tags}")
    require(header == (nx, ny, 8, 2, 0, 0, 0),
            f"{path}: header {header}, expected {nx}x{ny} 8-bit RGB")
    try:
        raw = zlib.decompress(idat)
    except zlib.error as exc:
        raise CheckError(f"{path}: {exc}") from None
    require(len(raw) == ny * (1 + 3 * nx), f"{path}: pixel data size")


def residual_size(report) -> float:
    return max(abs(report.residual1), abs(report.residual2))


def richardson_ratio(coarse, fine, label: str) -> float:
    """Residual ratio at steps h and h/2; second order gives about 1/4."""
    base = residual_size(coarse)
    require(base > 0.0, f"{label}: residual exactly zero")
    ratio = residual_size(fine) / base
    require(RATIO_LO <= ratio <= RATIO_HI,
            f"{label}: Richardson ratio {ratio:.4f} outside "
            f"[{RATIO_LO}, {RATIO_HI}]")
    return ratio


def verify_passed(code: int, text: str, label: str) -> None:
    lines = text.strip().splitlines()
    require(code == 0, f"{label}: verify exit code {code}")
    require(lines and lines[-1].endswith("verify PASS"),
            f"{label}: verify did not report PASS")
    require(not any("OUT OF RANGE" in line for line in lines),
            f"{label}: a verify point is out of range")


def bitwise_equal(a, b, label: str) -> None:
    for name in ("q1", "q2", "mask"):
        x, y = getattr(a, name), getattr(b, name)
        same = x.shape == y.shape and x.tobytes() == y.tobytes()
        require(same, f"{label}: pooled and serial {name} differ")


def crest(found, value: float, expected, expected_value: float,
          label: str) -> None:
    """A peak search that must land on a known crest."""
    dist = max(abs(found[0] - expected[0]), abs(found[1] - expected[1]))
    require(dist <= CREST_XY_TOL,
            f"{label}: crest at {found}, expected {expected}")
    require(abs(value - expected_value) <= CLOSED_FORM_TOL,
            f"{label}: crest |q1| = {value!r}, expected {expected_value}")


def search_consistent(value: float, at_found: float, at_center: float,
                      label: str) -> None:
    """The reported maximum is the field at the reported point, and never
    below the window's own center node, which the coarse scan visits."""
    require(value == at_found,
            f"{label}: reported |q1| {value!r} but the field there is "
            f"{at_found!r}")
    require(value >= at_center,
            f"{label}: search result {value!r} below the center node "
            f"{at_center!r}")
