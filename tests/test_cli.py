"""Command-line surface: scenarios, family flags, exit codes."""

import dataclasses
import json
import os

import numpy as np
import pytest

from flwave import (BreatherChart, cli, dt_engine, evaluate_grid,
                    pde_residual, solution_sampler)
from flwave.cli import SCENARIOS, main
from flwave.verify import ResidualReport
from flwave.dt_engine import spec_from_json

ALL_PANELS = (
    [f"fig1{c}" for c in "abcdefgh"]
    + [f"fig2{c}" for c in "abcd"]
    + [f"fig3{c}" for c in "abcdef"]
    + [f"fig4{c}" for c in "abcd"]
    + [f"fig5{c}" for c in "abcd"]
    + [f"fig6{c}" for c in "abcdef"]
    + [f"figY{c}" for c in "abcdefgh"]
)


def test_registry_covers_every_figure_panel():
    assert sorted(SCENARIOS) == sorted(ALL_PANELS)
    for name, s in SCENARIOS.items():
        assert s.name == name
        assert s.blurb


def test_scenario_fig3a_writes_csv_and_png(tmp_path, capsys):
    prefix = str(tmp_path / "fig3a")
    rc = main(["scenario", "fig3a", "--out", prefix])
    assert rc == 0
    assert os.path.exists(prefix + ".csv")
    assert os.path.exists(prefix + ".png")
    out = capsys.readouterr().out
    assert "fig3a: N=1 grid 101x101" in out
    assert "singular 0" in out
    assert "max 3" in out


def test_verify_fig3a_reports_quarter_ratios(capsys):
    rc = main(["verify", "fig3a"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fig3a: verify PASS" in out
    ratios = [float(line.split("residual ratio")[1].split()[0])
              for line in out.splitlines() if "residual ratio" in line]
    assert len(ratios) == 5
    assert all(0.2 <= r <= 0.3 for r in ratios)


def test_verify_soliton_panel_passes(capsys):
    assert main(["verify", "fig1a"]) == 0
    assert "fig1a: verify PASS" in capsys.readouterr().out


def test_list_prints_sorted_registry(capsys):
    rc = main(["list"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    names = [line.split()[0] for line in lines]
    assert names == sorted(SCENARIOS)
    assert any("rogue" in line for line in lines)


def test_family_run_with_fused_negative_grid(tmp_path, capsys):
    prefix = str(tmp_path / "sol")
    rc = main(["soliton", "--grid", "-5,5,21,-5,5,21",
               "--format", "csv", "--out", prefix])
    assert rc == 0
    with open(prefix + ".csv") as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 1 + 21 * 21
    assert "N=1 grid 21x21" in capsys.readouterr().out


def test_zero_a1_exits_2_and_names_the_field(capsys):
    rc = main(["breather", "--seed", "0,-1,-1,-2,1,1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("flwave: ")
    assert "a1" in err


def test_unknown_scenario_exits_2(capsys):
    rc = main(["scenario", "fig9z"])
    assert rc == 2
    assert "fig9z" in capsys.readouterr().err


def test_unknown_output_format_exits_2(tmp_path, capsys):
    rc = main(["soliton", "--grid", "-1,1,3,-1,1,3", "--format", "svg",
               "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "svg" in capsys.readouterr().err


def test_noncritical_rogue_lambda_exits_2(tmp_path, capsys):
    # raised in a pool worker, where the rogue builder checks its chart
    rc = main(["rogue", "--lambda", "1,0", "--grid", "-2,2,5,-2,2,5",
               "--format", "csv", "--out", str(tmp_path / "r")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("flwave: ")
    assert "rogue charts need the critical lambda" in err


def test_breather_lambda_at_a_root_of_S_exits_2(tmp_path, capsys):
    rc = main(["breather", "--lambda", "0,0.7071067811865476",
               "--grid", "-2,2,5,-2,2,5", "--format", "csv",
               "--out", str(tmp_path / "b")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("flwave: ")
    assert "use a rogue chart" in err


@pytest.mark.parametrize("argv,field", [
    (["ybreather", "--l", "nan,1,1"], "chart l1"),
    (["soliton", "--h1", "inf,0"], "chart h1"),
    (["breather", "--h2", "nan,0"], "chart h2"),
    (["rogue", "--shift", "0,nan,0"], "chart shift 0"),
    (["breather", "--lambda", "nan,0.5"], "chart lambda"),
    (["breather", "--seed", "nan,-1,-1,-2,1,1"], "seed a1"),
    (["rogue", "--seed", "-0.5,-0.5,-1,-1,inf,inf"], "seed d1"),
    (["breather", "--seed", "-1,-1,-1,-2,0,0"], "amplitudes d1, d2"),
    (["rogue", "--seed", "-0.5,-0.5,-1,-1,0,0"], "amplitudes d1, d2"),
    # the panel's "critical" lambda has no root of S to resolve to here
    (["rogue", "--seed", "zero"], "require a plane-wave background"),
    (["hybrid", "--seed", "zero"], "require a plane-wave background"),
    # checked as the chart's cached jets are built
    (["breather", "--seed", "-1,-1,-1,-2,1,2"], "a1 == a2 and d1 == d2"),
    (["rogue", "--seed", "-0.5,-0.5,-1,-2,1,1"], "b1 == b2"),
    # finite values whose powers overflow or underflow
    (["breather", "--seed", "-1,-1,-1,-2,1e200,1e200"], "seed d1"),
    (["breather", "--seed", "-1,-1,-1,-2,1,1e200"], "seed d2"),
    (["rogue", "--seed", "-0.5,-0.5,-1,-1,1e100,1e100"], "seed d1"),
    (["breather", "--lambda", "1e200,1"], "chart lambda"),
    (["rogue", "--lambda", "1e200,1"], "chart lambda"),
    (["hybrid", "--lambda", "1e200,1"], "chart lambda"),
    (["breather", "--lambda", "1e100,1"], "chart lambda"),
    (["soliton", "--lambda", "1e-170,0"], "chart lambda"),
    (["soliton", "--lambda", "1.5e308,1.5e308", "--lambda", "1,1"],
     "chart lambda"),
    (["breather", "--lambda", "a,b"], "--lambda wants numbers"),
    # as 1e-170,0 above: finite lambdas whose 1/(4 lambda^2) overflows
    (["soliton", "--lambda", "1e-160,0"], "chart lambda"),
    (["positon", "--lambda", "1e-160,0"], "chart lambda"),
    (["breather", "--lambda", "1e-160,1e-160"], "chart lambda"),
    (["hybrid", "--lambda", "1e-160,1e-160"], "chart lambda"),
    # psi1 = l2 W12 e2 + l3 W13 e3 vanishes
    (["breather", "--l", "1,0,0"], "chart l2 and l3"),
    (["ybreather", "--l", "1,0,0"], "chart l2 and l3"),
    (["hybrid", "--l", "0,0,0"], "chart l2 and l3"),
])
def test_bad_chart_or_seed_value_exits_2_and_names_the_field(
        tmp_path, capsys, argv, field):
    rc = main(argv + ["--grid", "-2,2,3,-2,2,3", "--format", "csv",
                      "--out", str(tmp_path / "v")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("flwave: ")
    assert field in err


def test_unwritable_output_exits_4(capsys):
    rc = main(["soliton", "--grid", "-1,1,3,-1,1,3", "--format", "csv",
               "--out", "/nonexistent-dir-zz/out"])
    assert rc == 4
    assert capsys.readouterr().err.startswith("flwave: ")


def test_config_file_supplies_seed_profile_grid(tmp_path, capsys):
    cfg = {
        "seed": {"a1": -0.5, "a2": -0.5, "b1": -1, "b2": -1,
                 "d1": 1, "d2": 1},
        "profile": "sine",
        "grid": {"x": [-2, 2, 7], "y": [-2, 2, 5], "t": 0.5},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    prefix = str(tmp_path / "br")
    rc = main(["breather", "--config", str(path), "--format", "csv",
               "--out", prefix])
    assert rc == 0
    out = capsys.readouterr().out
    assert "grid 7x5" in out
    with open(prefix + ".csv") as fh:
        assert len(fh.read().splitlines()) == 1 + 7 * 5


def test_config_flag_overrides_file(tmp_path, capsys):
    cfg = {"grid": {"x": [-2, 2, 7], "y": [-2, 2, 5]}}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    rc = main(["breather", "--config", str(path), "--grid", "-1,1,3,-1,1,3",
               "--format", "csv", "--out", str(tmp_path / "b")])
    assert rc == 0
    assert "grid 3x3" in capsys.readouterr().out


def test_config_nan_seed_exits_2_and_names_the_field(tmp_path, capsys):
    # json reads the bare token NaN as a float
    path = tmp_path / "run.json"
    path.write_text('{"seed": {"a1": -1, "a2": -1, "b1": -1, "b2": -2, '
                    '"d1": NaN, "d2": 1}}')
    rc = main(["breather", "--config", str(path), "--format", "csv",
               "--out", str(tmp_path / "b")])
    assert rc == 2
    assert "seed d1 must be finite" in capsys.readouterr().err


def test_config_unknown_key_exits_2(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"lambda": [1, 1]}))
    rc = main(["breather", "--config", str(path)])
    assert rc == 2
    assert "lambda" in capsys.readouterr().err


@pytest.mark.parametrize("content", [b"{not json", b"\xff\xfe{", b"[1, 2]"],
                         ids=["malformed", "not-utf8", "not-an-object"])
def test_config_malformed_json_exits_2(tmp_path, capsys, content):
    path = tmp_path / "run.json"
    path.write_bytes(content)
    rc = main(["breather", "--config", str(path)])
    assert rc == 2
    assert f"config {path}" in capsys.readouterr().err


@pytest.mark.parametrize("cfg,field", [
    ({"grid": {"x": [-1, True, 3], "y": [-1, 1, 3]}},
     "grid x_max must be a number, got True"),
    ({"seed": {"a1": "-1", "a2": -1, "b1": -1, "b2": -2, "d1": 1, "d2": 1}},
     "seed a1 must be a number, got '-1'"),
    # an integer literal past the double range
    ({"grid": {"x": [-1, 10 ** 400, 3], "y": [-1, 1, 3]}},
     "grid x_max must be finite"),
])
def test_config_value_that_is_not_a_finite_number_exits_2(tmp_path, capsys,
                                                           cfg, field):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    rc = main(["breather", "--config", str(path), "--format", "csv",
               "--out", str(tmp_path / "b")])
    assert rc == 2
    assert field in capsys.readouterr().err


def test_config_grid_that_is_not_an_object_exits_2_under_t(tmp_path, capsys):
    # --t edits a field of the config's grid
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"grid": [-1, 1, 3]}))
    rc = main(["breather", "--config", str(path), "--t", "1"])
    assert rc == 2
    assert "grid must be an object" in capsys.readouterr().err


def test_excess_mult_values_exit_2(tmp_path, capsys):
    rc = main(["soliton", "--mult", "1", "--mult", "1",
               "--lambda", "1,1", "--out", str(tmp_path / "m")])
    assert rc == 2
    assert "--mult" in capsys.readouterr().err


def test_soliton_rejects_plane_wave_seed(capsys):
    rc = main(["soliton", "--seed", "-1,-1,-1,-2,1,1"])
    assert rc == 2
    assert "zero" in capsys.readouterr().err


@pytest.mark.parametrize("grid,field", [
    ("-1,1,2.5,-1,1,3", "nx"),
    ("0,1,nan,-1,1,3", "nx"),
    ("-1,1,3,-1,1,1", "ny"),
    ("0,inf,3,-1,1,3", "x_max"),
    ("-1e308,1e308,3,-1,1,3", "x_max - x_min"),
    ("-1,1,3", "--grid wants 6 comma-separated values"),
])
def test_bad_grid_exits_2_and_names_the_field(tmp_path, capsys, grid, field):
    rc = main(["rogue", "--grid", grid, "--format", "csv",
               "--out", str(tmp_path / "g")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("flwave: ")
    assert field in err


def test_infinite_t_exits_2_and_names_the_field(tmp_path, capsys):
    rc = main(["rogue", "--t", "inf", "--grid", "-1,1,3,-1,1,3",
               "--format", "csv", "--out", str(tmp_path / "t")])
    assert rc == 2
    assert "grid t must be finite" in capsys.readouterr().err


def test_far_field_overflow_masks_nodes_instead_of_aborting(tmp_path,
                                                            capsys):
    rc = main(["soliton", "--grid", "-400,400,5,-5,5,3", "--format", "csv",
               "--out", str(tmp_path / "far")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "grid 5x3 singular 6" in out


def test_fully_masked_grid_exits_3_after_its_summary(tmp_path, capsys):
    rc = main(["rogue", "--grid", "1e308,1.7e308,3,-1,1,3", "--format",
               "csv", "--out", str(tmp_path / "far")])
    assert rc == 3
    captured = capsys.readouterr()
    assert "grid 3x3 singular 9" in captured.out
    assert captured.err.startswith("flwave: ")
    assert "masked" in captured.err


# -- family runs start from their panel --------------------------------------

FAMILY_PANELS = {"soliton": "fig1a", "positon": "fig1e", "breather": "fig2a",
                 "ybreather": "figYa", "rogue": "fig3a", "hybrid": "fig5a"}


def family_scenario(argv):
    return cli._family_scenario(cli.build_parser().parse_args(argv))


@pytest.mark.parametrize("family", sorted(FAMILY_PANELS))
def test_family_without_flags_equals_its_panel(family):
    s = family_scenario([family])
    panel = SCENARIOS[FAMILY_PANELS[family]]
    assert s.name == family
    assert (s.background, s.charts, s.profile, s.grid) \
        == (panel.background, panel.charts, panel.profile, panel.grid)


@pytest.mark.parametrize("argv,flag", [
    (["soliton", "--shift", "1,5,0"], "--shift"),
    (["rogue", "--h1", "1,0"], "--h1"),
    (["positon", "--l", "1,1,1"], "--l"),
])
def test_flag_that_no_chart_takes_exits_2(tmp_path, capsys, argv, flag):
    rc = main(argv + ["--grid", "-1,1,3,-1,1,3", "--format", "csv",
                      "--out", str(tmp_path / "f")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("flwave: ")
    assert flag in err


@pytest.mark.parametrize("argv,panel", [
    (["soliton", "--profile", "quadratic"], "fig1b"),
    (["soliton", "--profile", "sine"], "fig1d"),
    (["positon", "--profile", "sine"], "fig1h"),
])
def test_profile_flag_replaces_only_the_profile(argv, panel):
    s, want = family_scenario(argv), SCENARIOS[panel]
    assert (s.background, s.charts, s.profile, s.grid) \
        == (want.background, want.charts, want.profile, want.grid)


def test_breather_h1_leaves_h2_alone():
    (chart,) = family_scenario(["breather", "--h1", "2,0"]).charts.charts
    assert chart.h1 == 2
    assert chart.h2 == -1 - 1j


def test_hybrid_noncritical_lambda_copies_the_breather_chart():
    (chart,) = family_scenario(["hybrid", "--lambda", "0.5,0.5"]).charts.charts
    assert isinstance(chart, BreatherChart)
    assert chart.lam == 0.5 + 0.5j
    assert (chart.h1, chart.h2) == (0, 0)
    assert (chart.l1, chart.l2, chart.l3) == (0, 1, 1)


def test_hybrid_lambda_just_off_critical_runs_as_a_breather(tmp_path):
    # |S| = 2e-9 here: not a root of S by the builders' own test
    rc = main(["hybrid", "--lambda", "0.3535533915932738,0.35355339059327373",
               "--grid", "-2,2,5,-2,2,5", "--format", "csv",
               "--out", str(tmp_path / "h")])
    assert rc == 0


def test_verify_picks_points_on_a_small_serial_frame(monkeypatch, capsys):
    # the 19 x 19 interior of a 21 x 21 frame in one call, then one
    # 5-point stencil batch per step, all in this process
    calls = []
    inner = dt_engine.evaluate_points

    def counted(background, config, profile, points):
        calls.append(len(points))
        return inner(background, config, profile, points)

    monkeypatch.setattr(dt_engine, "evaluate_points", counted)
    assert main(["verify", "fig3a"]) == 0
    assert "fig3a: verify PASS" in capsys.readouterr().out
    assert calls == [361, 55, 55]


def test_verify_that_checks_no_ratio_fails(monkeypatch, capsys):
    def zero(sampler, points, step):
        return [ResidualReport(0j, 0j, step, p) for p in points]

    monkeypatch.setattr(cli, "pde_residual", zero)
    assert main(["verify", "fig3a"]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert sum("skipping ratio" in line for line in lines) == 5
    assert lines[-1] == "fig3a: no usable sample points"


def _grid_verify_points(field):
    """Check points as picked from a FieldGrid of the whole frame."""
    spec = field.spec
    xs, ys = spec.xs(), spec.ys()
    cand = []
    a = field.abs_q1
    for j in range(1, spec.ny - 1):
        for i in range(1, spec.nx - 1):
            if not field.mask[j, i]:
                cand.append((float(a[j, i]), xs[i], ys[j]))
    cand.sort(reverse=True)
    min_sep = max(spec.x_max - spec.x_min, spec.y_max - spec.y_min) / 10
    picked = []
    for mag, x, y in cand:
        if any(abs(x - px) + abs(y - py) < min_sep for _, px, py in picked):
            continue
        picked.append((mag, x, y))
        if len(picked) == cli.VERIFY_POINTS:
            break
    return [(x, y, spec.t) for _, x, y in picked]


def _grid_verify(s):
    """verify as a 21 x 21 evaluate_grid, then residuals point by point."""
    frame = dataclasses.replace(s.grid, nx=cli.VERIFY_NODES,
                                ny=cli.VERIFY_NODES)
    field = evaluate_grid(s.background, s.charts, s.profile, frame)
    sampler = solution_sampler(s.background, s.charts, s.profile)
    points = _grid_verify_points(field)
    if not points:
        print(f"{s.name}: no usable sample points")
        return 3
    ok = True
    for pt in points:
        coarse = pde_residual(sampler, pt, cli.VERIFY_STEP)
        fine = pde_residual(sampler, pt, cli.VERIFY_STEP / 2)
        if coarse.max_abs == 0.0:
            print(f"{s.name}: ({pt[0]:.3f},{pt[1]:.3f}) residual exactly "
                  "zero, skipping ratio")
            continue
        ratio = fine.max_abs / coarse.max_abs
        good = cli.RATIO_LO <= ratio <= cli.RATIO_HI
        ok = ok and good
        print(f"{s.name}: point ({pt[0]:.3f},{pt[1]:.3f}) "
              f"residual ratio {ratio:.4f} "
              f"{'ok' if good else 'OUT OF RANGE'}")
    print(f"{s.name}: verify {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 3


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_verify_prints_what_the_grid_loop_prints(capsys, name):
    rc = cli.verify_scenario(SCENARIOS[name])
    out = capsys.readouterr().out
    want_rc = _grid_verify(SCENARIOS[name])
    assert out == capsys.readouterr().out
    assert rc == want_rc == 0
    assert out.count(" ok\n") == cli.VERIFY_POINTS


@pytest.mark.parametrize("family", ["rogue", "hybrid"])
def test_rogue_families_follow_the_seed(tmp_path, capsys, family):
    # the rogue chart takes the critical lambda of --seed, not of seed_r
    rc = main([family, "--seed", "-0.5,-0.5,-1,-1,2,2",
               "--grid", "-2,2,5,-2,2,5", "--format", "csv",
               "--out", str(tmp_path / family)])
    assert rc == 0, capsys.readouterr().err


def test_scenario_pool_uses_the_cpus_the_process_may_run_on(monkeypatch,
                                                           tmp_path):
    calls = []
    inner = cli.evaluate_grid

    def counted(background, config, profile, spec, workers=1):
        calls.append(workers)
        return inner(background, config, profile, spec)

    monkeypatch.setattr(cli, "evaluate_grid", counted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5},
                        raising=False)
    rc = main(["soliton", "--grid", "-1,1,3,-1,1,3", "--format", "csv",
               "--out", str(tmp_path / "s")])
    assert rc == 0
    assert calls == [3]


@pytest.mark.parametrize("argv", [
    ["rogue", "--shift", "1,100,0"],
    ["rogue", "--mult", "1", "--shift", "2,100,0"],
    # rejected before a table of a million entries is built
    ["rogue", "--shift", "1000000,1,0"],
    ["rogue", "--shift", "nan,1,0"],
    ["rogue", "--shift", "inf,1,0"],
])
def test_shift_past_the_rogue_order_exits_2(tmp_path, capsys, argv):
    rc = main(argv + ["--grid", "-1,1,3,-1,1,3", "--format", "csv",
                      "--out", str(tmp_path / "r")])
    assert rc == 2
    assert "shift" in capsys.readouterr().err


def test_shift_within_the_rogue_order_runs(tmp_path):
    rc = main(["rogue", "--mult", "1", "--shift", "1,100,0",
               "--grid", "-1,1,3,-1,1,3", "--format", "csv",
               "--out", str(tmp_path / "r")])
    assert rc == 0


def test_panel_specs_read_back_from_json_are_the_registry():
    for name, s in SCENARIOS.items():
        spec = json.loads(json.dumps(cli._panel_spec(name)))
        assert spec_from_json(spec) \
            == (s.background, s.charts, s.profile, s.grid), name
