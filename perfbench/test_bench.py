"""Tests of the benchmark itself: every workload runs and passes its
checks, and every check rejects a deliberately wrong output.

    python3 -m pytest perfbench -q
"""
import json
import os
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from flwave import (FieldGrid, GridSpec, ResidualReport,  # noqa: E402
                    closed_form_rw1, export_field, load_binary_field,
                    render_heatmap)


def bench(*args):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           *args], capture_output=True, text=True,
                          cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_one_round_of_every_workload_passes(name):
    result = bench("--workload", name, "--seed", "5", "--seconds", "0",
                   "--trace", "0")
    assert result["correct"] is True
    assert result["attempted"] == len(
        workloads.build(name, workloads.public_api(), 5, HERE).ops)
    assert result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_prints_every_layer_metric():
    result = bench("--workload", "probe", "--seed", "5", "--seconds", "0",
                   "--trace", "1")
    assert result["correct"] is True
    assert set(result["metrics"]) == set(run.PER_LAYER_UNITS)
    assert result["metrics"]["numerics.solve_calls_per_pt"]["value"] == 3.0


def test_metric_names_and_units_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_same_seed_same_inputs():
    api = workloads.public_api()
    for name in workloads.WORKLOADS:
        a = workloads.build(name, api, 9, HERE)
        b = workloads.build(name, api, 9, HERE)
        assert [op.label for op in a.ops] == [op.label for op in b.ops]


def test_run_stops_without_a_result_when_the_source_is_missing(tmp_path):
    # a tree holding only BENCHMARK.json and the benchmark's own files
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "probe", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], capture_output=True, text=True,
                          cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- each check rejects a wrong output ---------------------------------------


def rogue_grid(n=9):
    spec = GridSpec(-2.0, 2.0, -3.0, 1.0, n, n)
    xs, ys = checks.nodes(spec)
    q = np.array([[closed_form_rw1((x, y, 0.0)) for x in xs] for y in ys])
    return FieldGrid(spec=spec, q1=q, q2=q.copy(),
                     mask=np.zeros((n, n), dtype=bool))


def nudged(grid, delta=1e-6):
    q1 = grid.q1.copy()
    q1[3, 4] += delta
    return FieldGrid(spec=grid.spec, q1=q1, q2=grid.q2, mask=grid.mask)


def test_closed_form_and_symmetry_reject_a_nudged_q1():
    grid = rogue_grid()
    checks.matches_closed_form(grid, closed_form_rw1, "ok")
    checks.exchange_symmetric(grid, "ok")
    with pytest.raises(checks.CheckError):
        checks.matches_closed_form(nudged(grid), closed_form_rw1, "bad")
    with pytest.raises(checks.CheckError):
        checks.exchange_symmetric(nudged(grid), "bad")


def test_masked_node_is_rejected():
    grid = rogue_grid()
    checks.no_masked(grid, "ok")
    grid.mask[2, 2] = True
    with pytest.raises(checks.CheckError):
        checks.no_masked(grid, "bad")


def test_binary_readback_rejects_one_flipped_value(tmp_path):
    grid, path = rogue_grid(), tmp_path / "f.bin"
    export_field(grid, str(path), "f64bin")
    checks.binary_readback(str(path), grid, load_binary_field)
    blob = bytearray(path.read_bytes())
    blob[12 + 64 * 5 + 8 * 2] ^= 1  # lowest bit of one re_q1 value
    path.write_bytes(bytes(blob))
    with pytest.raises(checks.CheckError):
        checks.binary_readback(str(path), grid, load_binary_field)


def test_binary_readback_rejects_a_field_that_differs(tmp_path):
    grid, path = rogue_grid(), str(tmp_path / "f.bin")
    export_field(grid, path, "f64bin")
    with pytest.raises(checks.CheckError):
        checks.binary_readback(path, nudged(grid, 1e-15), load_binary_field)


def test_csv_readback_rejects_a_changed_value(tmp_path):
    grid, path = rogue_grid(), tmp_path / "f.csv"
    export_field(grid, str(path), "csv")
    checks.csv_readback(str(path), grid)
    lines = path.read_text().splitlines()
    cols = lines[7].split(",")
    cols[2] = repr(float(cols[2]) + 1e-12)
    lines[7] = ",".join(cols)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckError):
        checks.csv_readback(str(path), grid)


def test_png_check_rejects_bad_crc_and_wrong_size(tmp_path):
    grid, path = rogue_grid(), tmp_path / "f.png"
    render_heatmap(grid, str(path))
    checks.png_valid(str(path), 9, 9)
    with pytest.raises(checks.CheckError):
        checks.png_valid(str(path), 9, 8)
    blob = bytearray(path.read_bytes())
    (ihdr_len,) = struct.unpack_from(">I", blob, 8)
    blob[8 + 12 + ihdr_len + 8] ^= 0xFF  # first IDAT payload byte
    path.write_bytes(bytes(blob))
    with pytest.raises(checks.CheckError):
        checks.png_valid(str(path), 9, 9)


@pytest.mark.parametrize("fine", [0.35e-6, 0.15e-6, 1e-6])
def test_richardson_ratio_outside_the_bracket_is_rejected(fine):
    pt = (0.0, 0.0, 0.0)
    coarse = ResidualReport(1e-6, 0.5e-6, 1e-3, pt)
    assert checks.richardson_ratio(
        coarse, ResidualReport(0.25e-6, 0.1e-6, 5e-4, pt), "ok") == 0.25
    with pytest.raises(checks.CheckError):
        checks.richardson_ratio(coarse, ResidualReport(fine, 0j, 5e-4, pt),
                                "bad")


def test_verify_verdict_must_be_pass():
    good = "fig3a: point (1.000,-1.000) residual ratio 0.2500 ok\n" \
           "fig3a: verify PASS\n"
    checks.verify_passed(0, good, "ok")
    with pytest.raises(checks.CheckError):
        checks.verify_passed(3, good, "bad exit")
    with pytest.raises(checks.CheckError):
        checks.verify_passed(0, good.replace("PASS", "FAIL"), "bad verdict")
    with pytest.raises(checks.CheckError):
        checks.verify_passed(0, good.replace(" ok", " OUT OF RANGE"), "bad")


def test_pooled_grid_must_match_serial_bit_for_bit():
    grid = rogue_grid()
    checks.bitwise_equal(grid, rogue_grid(), "ok")
    with pytest.raises(checks.CheckError):
        checks.bitwise_equal(nudged(grid, 1e-15), grid, "bad")


def test_crest_and_search_checks_reject_a_missed_peak():
    checks.crest((1.0, -1.0), 3.0, (1.0, -1.0), 3.0, "ok")
    with pytest.raises(checks.CheckError):
        checks.crest((1.001, -1.0), 3.0, (1.0, -1.0), 3.0, "bad place")
    with pytest.raises(checks.CheckError):
        checks.crest((1.0, -1.0), 3.0 - 1e-6, (1.0, -1.0), 3.0, "bad value")
    checks.search_consistent(2.0, 2.0, 1.5, "ok")
    with pytest.raises(checks.CheckError):
        checks.search_consistent(2.0, 2.1, 1.5, "not the field there")
    with pytest.raises(checks.CheckError):
        checks.search_consistent(2.0, 2.0, 2.5, "below the center")
