"""Grid evaluation, CSV/binary export, and PNG rendering."""

import concurrent.futures
import re
import struct
import zlib

import numpy as np
import pytest

from flwave import (
    BreatherChart,
    ConfigError,
    DeformationProfile,
    DtConfig,
    FieldGrid,
    GridSpec,
    PlaneWaveSeed,
    RogueChart,
    ZeroBackground,
    ZeroSeedChart,
    closed_form_rw1,
    critical_lambda,
    evaluate_grid,
    export_field,
    load_binary_field,
    render_heatmap,
)
from flwave.dt_engine import chunk_points
from flwave.grid_render import (
    BINARY_MAGIC,
    COLORMAP_TABLE,
    CSV_HEADER,
    MASK_COLOR,
)

SEED_B = PlaneWaveSeed(-1, -1, -1, -2, 1, 1)
SEED_R = PlaneWaveSeed(-0.5, -0.5, -1, -1, 1, 1)
LAM_CRIT = critical_lambda(-0.5, 1.0)
LIN = DeformationProfile.LINEAR


def tiny_grid():
    spec = GridSpec(0.0, 1.0, 10.0, 11.0, 2, 2)
    q1 = np.array([[1 + 2j, 3 - 4j], [-0.5j, 2 + 0j]])
    q2 = np.array([[0j, 1 + 1j], [2 - 2j, -3 + 0j]])
    return FieldGrid(spec=spec, q1=q1, q2=q2,
                     mask=np.zeros((2, 2), dtype=bool))


def rw1_grid(nx=51, ny=51, half=5.0):
    spec = GridSpec(-half, half, -half, half, nx, ny)
    xs = spec.xs()
    ys = spec.ys()
    q1 = np.array([[closed_form_rw1((x, y, 0.0)) for x in xs] for y in ys])
    return FieldGrid(spec=spec, q1=q1, q2=q1.copy(),
                     mask=np.zeros((ny, nx), dtype=bool))


def png_pixels(path):
    """Minimal decoder for the writer's fixed layout: 8-bit RGB, filter 0."""
    with open(path, "rb") as fh:
        blob = fh.read()
    assert blob[:8] == b"\x89PNG\r\n\x1a\n"
    off = 8
    width = height = None
    idat = b""
    while off < len(blob):
        (length,) = struct.unpack_from(">I", blob, off)
        tag = blob[off + 4:off + 8]
        payload = blob[off + 8:off + 8 + length]
        if tag == b"IHDR":
            width, height, depth, color = struct.unpack_from(">IIBB", payload)
            assert (depth, color) == (8, 2)
        elif tag == b"IDAT":
            idat += payload
        off += 12 + length
    raw = zlib.decompress(idat)
    stride = 1 + 3 * width
    assert len(raw) == stride * height
    rows = []
    for r in range(height):
        line = raw[r * stride:(r + 1) * stride]
        assert line[0] == 0
        rows.append([tuple(line[1 + 3 * i:4 + 3 * i]) for i in range(width)])
    return width, height, rows


# -- CSV export --------------------------------------------------------------


def test_csv_two_by_two_has_five_lines(tmp_path):
    grid = tiny_grid()
    path = tmp_path / "tiny.csv"
    export_field(grid, str(path), format="csv")
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 5
    assert lines[0] == CSV_HEADER


def test_csv_row_order_y_outer_x_fastest(tmp_path):
    grid = tiny_grid()
    path = tmp_path / "tiny.csv"
    export_field(grid, str(path), format="csv")
    with open(path) as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[1:]]
    coords = [(float(r[0]), float(r[1])) for r in rows]
    assert coords == [(0.0, 10.0), (1.0, 10.0), (0.0, 11.0), (1.0, 11.0)]
    assert float(rows[1][2]) == 3.0
    assert float(rows[1][3]) == -4.0


def test_csv_abs_column_within_one_ulp(tmp_path):
    # the moduli equal Python's abs(complex) bit for bit; numpy's abs
    # rounds differently on about a third of random values
    grid = rw1_grid(nx=11, ny=11)
    path = tmp_path / "rw.csv"
    export_field(grid, str(path), format="csv")
    with open(path) as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[1:]]
    k = 0
    for j in range(11):
        for i in range(11):
            assert float(rows[k][4]) == abs(complex(grid.q1[j, i]))
            assert float(rows[k][7]) == abs(complex(grid.q2[j, i]))
            k += 1


def test_unknown_export_format_rejected(tmp_path):
    with pytest.raises(ConfigError):
        export_field(tiny_grid(), str(tmp_path / "x.dat"), format="hdf5")


# -- binary export -----------------------------------------------------------


def test_binary_round_trip_is_bitwise(tmp_path):
    grid = rw1_grid(nx=7, ny=5)
    path = str(tmp_path / "rw.f64")
    export_field(grid, path, format="f64bin")
    nx, ny, data = load_binary_field(path)
    assert (nx, ny) == (7, 5)
    assert data.shape == (35, 8)
    flat1 = grid.q1.ravel()
    flat2 = grid.q2.ravel()
    assert np.array_equal(data[:, 2], flat1.real)
    assert np.array_equal(data[:, 3], flat1.imag)
    assert np.array_equal(data[:, 5], flat2.real)
    assert np.array_equal(data[:, 6], flat2.imag)


def test_binary_starts_with_magic(tmp_path):
    path = tmp_path / "tiny.f64"
    export_field(tiny_grid(), str(path), format="f64bin")
    with open(path, "rb") as fh:
        head = fh.read(12)
    assert head[:4] == BINARY_MAGIC
    assert struct.unpack("<II", head[4:]) == (2, 2)


def test_binary_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.f64"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ConfigError):
        load_binary_field(str(path))


@pytest.mark.parametrize("keep,sizes", [
    (8, "8 bytes of a 12-byte header"),
    (12 + 40 * 8, "332 bytes, where its 3x3 header needs 588"),
])
def test_truncated_binary_names_the_path_and_both_sizes(tmp_path, keep,
                                                        sizes):
    path = tmp_path / "cut.f64"
    export_field(rw1_grid(nx=3, ny=3), str(path), format="f64bin")
    path.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(ConfigError, match=re.escape(str(path))) as info:
        load_binary_field(str(path))
    assert sizes in str(info.value)


# -- PNG rendering -----------------------------------------------------------


def test_heatmap_constant_field_is_uniform_midscale(tmp_path):
    spec = GridSpec(-1, 1, -1, 1, 4, 3)
    q1 = np.full((3, 4), 2.0 + 0j)
    grid = FieldGrid(spec=spec, q1=q1, q2=q1.copy(),
                     mask=np.zeros((3, 4), dtype=bool))
    path = str(tmp_path / "flat.png")
    render_heatmap(grid, path)
    width, height, rows = png_pixels(path)
    assert (width, height) == (4, 3)
    mid = COLORMAP_TABLE[128]
    assert all(px == mid for row in rows for px in row)


def test_heatmap_extremes_hit_colormap_ends(tmp_path):
    grid = rw1_grid(nx=21, ny=21)
    path = str(tmp_path / "rw.png")
    render_heatmap(grid, path)
    _, _, rows = png_pixels(path)
    flat = [px for row in rows for px in row]
    assert COLORMAP_TABLE[255] in flat
    assert COLORMAP_TABLE[0] in flat


def test_heatmap_brightest_pixel_sits_on_the_crest(tmp_path):
    grid = rw1_grid(nx=51, ny=51, half=5.0)
    path = str(tmp_path / "rw51.png")
    render_heatmap(grid, path)
    width, height, rows = png_pixels(path)
    hits = [(r, i) for r in range(height) for i in range(width)
            if rows[r][i] == COLORMAP_TABLE[255]]
    assert len(hits) == 1
    r, i = hits[0]
    xs = grid.spec.xs()
    ys = grid.spec.ys()
    x = xs[i]
    y = ys[height - 1 - r]
    assert abs(x - 1.0) <= 0.1 + 1e-12
    assert abs(y + 1.0) <= 0.1 + 1e-12


def test_heatmap_masked_pixel_is_black(tmp_path):
    spec = GridSpec(0, 1, 0, 1, 3, 3)
    q1 = np.linspace(0, 8, 9).reshape(3, 3).astype(complex)
    mask = np.zeros((3, 3), dtype=bool)
    mask[0, 2] = True
    grid = FieldGrid(spec=spec, q1=q1, q2=q1.copy(), mask=mask)
    path = str(tmp_path / "masked.png")
    render_heatmap(grid, path)
    _, _, rows = png_pixels(path)
    # grid row j=0 is y_min, which the writer puts at the bottom image row
    assert rows[2][2] == MASK_COLOR
    assert rows[0][0] != MASK_COLOR


def test_heatmap_of_a_fully_masked_grid_is_black(tmp_path):
    spec = GridSpec(0, 1, 0, 1, 3, 2)
    q1 = np.full((2, 3), np.nan + 0j)
    grid = FieldGrid(spec=spec, q1=q1, q2=q1.copy(),
                     mask=np.ones((2, 3), dtype=bool))
    path = str(tmp_path / "dark.png")
    render_heatmap(grid, path)
    width, height, rows = png_pixels(path)
    assert (width, height) == (3, 2)
    assert all(px == MASK_COLOR for row in rows for px in row)


# -- evaluate_grid -----------------------------------------------------------


def test_evaluate_grid_matches_pointwise_evaluation():
    cfg = DtConfig((RogueChart(LAM_CRIT),))
    spec = GridSpec(-2, 2, -2, 2, 9, 9)
    grid = evaluate_grid(SEED_R, cfg, LIN, spec)
    assert grid.singular_count == 0
    xs = spec.xs()
    ys = spec.ys()
    for j in (0, 4, 8):
        for i in (0, 4, 8):
            want = closed_form_rw1((xs[i], ys[j], 0.0))
            assert abs(grid.q1[j, i] - want) < 1e-8


def test_evaluate_grid_parallel_bitwise_equal():
    cases = [
        (SEED_R, RogueChart(LAM_CRIT), GridSpec(-2, 2, -2, 2, 13, 13)),
        # far-field soliton: 6 of the 15 nodes overflow and are masked
        (ZeroBackground(), ZeroSeedChart(1 + 1j, h1=1 + 1j),
         GridSpec(-400, 400, -5, 5, 5, 3)),
    ]
    for background, chart, spec in cases:
        cfg = DtConfig((chart,))
        serial = evaluate_grid(background, cfg, LIN, spec, workers=1)
        parallel = evaluate_grid(background, cfg, LIN, spec, workers=2)
        # bytes, so NaN gaps compare too
        for name in ("q1", "q2", "mask"):
            assert getattr(serial, name).tobytes() \
                == getattr(parallel, name).tobytes()


def test_evaluate_grid_masks_singular_nodes_and_continues():
    # the cubic-profile wing of this chart crosses a band where Omega_1
    # outgrows double precision: rows below y = -9.15 flag, the rows above
    # hold either a converged value near the unit background or a mask
    # (never an absurd value such as |q1| ~ 1e298), and the evaluation
    # never aborts
    chart = BreatherChart(0.5 + 0.5j, 1, 1, 1, 1 + 1j, 1 + 1j)
    cfg = DtConfig((chart,))
    spec = GridSpec(-14.4, -13.6, -9.4, -8.9, 5, 6, 2.0)
    grid = evaluate_grid(SEED_B, cfg, DeformationProfile.CUBIC, spec)
    assert grid.mask[:3].all()
    valid = ~grid.mask
    assert (grid.abs_q1[valid] <= 10).all()
    assert (grid.abs_q2[valid] <= 10).all()


def test_evaluate_grid_masks_overflow_nodes_and_continues():
    # far out on x the soliton's exponentials overflow; those nodes are
    # masked and the rest of the grid is still evaluated
    cfg = DtConfig((ZeroSeedChart(1 + 1j, h1=1 + 1j),))
    spec = GridSpec(-400, 400, -5, 5, 5, 3)
    grid = evaluate_grid(ZeroBackground(), cfg, DeformationProfile.LINEAR,
                         spec)
    assert grid.mask[:, 0].all() and grid.mask[:, 4].all()
    assert not grid.mask[:, 2].any()
    assert np.isfinite(grid.q1[:, 2]).all()


def test_masked_nodes_export_as_nan(tmp_path):
    spec = GridSpec(0, 1, 0, 1, 2, 2)
    q1 = np.ones((2, 2), dtype=complex)
    mask = np.zeros((2, 2), dtype=bool)
    mask[1, 0] = True
    grid = FieldGrid(spec=spec, q1=q1, q2=q1.copy(), mask=mask)
    path = str(tmp_path / "nan.f64")
    export_field(grid, path, format="f64bin")
    _, _, data = load_binary_field(path)
    assert np.isnan(data[2, 2:]).all()
    assert not np.isnan(data[[0, 1, 3]][:, 2:]).any()



class _NoPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a process pool was started")


def test_grid_that_fits_in_one_chunk_runs_in_this_process(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _NoPool)
    cfg = DtConfig((ZeroSeedChart(1 + 1j, h1=1 + 1j),))
    grid = evaluate_grid(ZeroBackground(), cfg, LIN,
                         GridSpec(-1, 1, -1, 1, 3, 3), workers=2)
    assert grid.singular_count == 0


def test_pool_starts_at_most_one_process_per_chunk(monkeypatch):
    started = []
    spans = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            spans.extend(items)
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        SerialPool)
    cfg = DtConfig((RogueChart(LAM_CRIT),))
    # chunk_points(cfg) + 8 nodes: two chunks
    chunk = chunk_points(cfg)
    spec = GridSpec(-2, 2, -2, 2, chunk // 8 + 1, 8)
    pooled = evaluate_grid(SEED_R, cfg, LIN, spec, workers=8)
    serial = evaluate_grid(SEED_R, cfg, LIN, spec, workers=1)
    assert started == [2]
    assert spans == [(0, chunk), (chunk, chunk + 8)]
    for name in ("q1", "q2", "mask"):
        assert getattr(pooled, name).tobytes() \
            == getattr(serial, name).tobytes()
