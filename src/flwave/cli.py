"""Command line runner for the localized-wave families.

Each built-in scenario is one published panel as a run spec: its seed,
spectral data, deformation profile, and a grid window over which every
node's refined solve converges.  A family subcommand edits its panel's
spec (soliton fig1a, positon fig1e, breather fig2a, ybreather figYa,
rogue fig3a, hybrid fig5a): a JSON config file can replace the seed,
profile and grid, each flag then replaces only the field it names, and
the spec is parsed once.  The panels give a rogue chart's lambda as
"critical", the root of S on the run's seed.
"""

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields, replace
from functools import partial

import numpy as np

from .dt_engine import (CHART_KINDS, MAX_FOLDS, DtConfig, solution_sampler,
                        spec_from_json)
from .errors import ConfigError, FlwaveError
from .grid_render import evaluate_grid, export_field, render_heatmap
from .model import (_SEED_KEYS, DeformationProfile, GridSpec, SeedBackground,
                    seed_from_json)
from .spectral import is_critical
from .verify import pde_residual

# Richardson bracket for the verify subcommand: halving the step must
# shrink a second-order residual by about 4.
RATIO_LO = 0.2
RATIO_HI = 0.3
VERIFY_STEP = 1e-3
VERIFY_POINTS = 5
# nodes per axis of the frame copy the check points are picked from
VERIFY_NODES = 21


@dataclass(frozen=True)
class Scenario:
    name: str
    background: SeedBackground
    charts: DtConfig
    profile: DeformationProfile
    grid: GridSpec
    blurb: str = ""


# -- the figure panels as run specs (schema at dt_engine.spec_from_json) -----

_SEED_B = {"a1": -1, "a2": -1, "b1": -1, "b2": -2, "d1": 1, "d2": 1}
_SEED_R = {"a1": -0.5, "a2": -0.5, "b1": -1, "b2": -1, "d1": 1, "d2": 1}
_SOLITON = {"kind": "zero", "lam": [1, 1], "h1": [1, 1]}
_POSITON = {**_SOLITON, "multiplicity": 1}
# the hybrids' breathers; fig2 and figY add the deformation weights
_BREATHER = {"kind": "breather", "lam": [0.5, 0.5], "l1": 0.0}
_YBREATHER = {**_BREATHER, "l1": 1.0}
_FIG2 = {**_BREATHER, "h1": [1, 1], "h2": [-1, -1]}
_FIGY = {**_YBREATHER, "h1": [1, 1], "h2": [1, 1]}
_RW1 = {"kind": "rogue", "lam": "critical"}
_RW2 = {**_RW1, "multiplicity": 1}
_RW3 = {**_RW1, "multiplicity": 2}


def _grid(x0, x1, y0, y1, t=0.0) -> dict:
    return {"x": [x0, x1, 101], "y": [y0, y1, 101], "t": t}


# name -> (blurb, seed, charts, profile, grid)
_PANELS = {
    "fig1a": ("deformed soliton, linear profile",
              "zero", [_SOLITON], "linear", _grid(-12, 12, -12, 12)),
    "fig1b": ("deformed soliton, quadratic profile",
              "zero", [_SOLITON], "quadratic", _grid(-12, 12, -12, 12)),
    "fig1c": ("deformed soliton, cubic profile",
              "zero", [_SOLITON], "cubic", _grid(-7.5, 7.5, -7.5, 7.5)),
    "fig1d": ("deformed soliton, sine profile",
              "zero", [_SOLITON], "sine", _grid(-12, 12, -12, 12)),
    "fig1e": ("deformed positon, linear profile",
              "zero", [_POSITON], "linear", _grid(-12, 12, -12, 12)),
    "fig1f": ("deformed positon, quadratic profile",
              "zero", [_POSITON], "quadratic", _grid(-12, 12, -12, 12)),
    "fig1g": ("deformed positon, cubic profile",
              "zero", [_POSITON], "cubic", _grid(-7.5, 7.5, -7.5, 7.5)),
    "fig1h": ("deformed positon, sine profile",
              "zero", [_POSITON], "sine", _grid(-12, 12, -12, 12)),
    "fig2a": ("deformed breather, linear profile",
              _SEED_B, [_FIG2], "linear", _grid(-12, 12, -12, 12)),
    "fig2b": ("deformed breather, quadratic profile",
              _SEED_B, [_FIG2], "quadratic", _grid(-12, 12, -12, 12)),
    "fig2c": ("deformed breather, cubic profile",
              _SEED_B, [_FIG2], "cubic", _grid(-8, 8, -8, 8)),
    "fig2d": ("deformed breather, sine profile",
              _SEED_B, [_FIG2], "sine", _grid(-12, 12, -12, 12)),
    "figYa": ("Y-shaped breather, linear profile, t=0",
              _SEED_B, [_FIGY], "linear", _grid(-7, 7, -7, 7)),
    "figYb": ("Y-shaped breather, quadratic profile, t=0",
              _SEED_B, [_FIGY], "quadratic", _grid(-10, 10, -10, 10)),
    "figYc": ("Y-shaped breather, cubic profile, t=0",
              _SEED_B, [_FIGY], "cubic", _grid(-6, 6, -1.5, 6)),
    "figYd": ("Y-shaped breather, sine profile, t=0",
              _SEED_B, [_FIGY], "sine", _grid(-10, 10, -10, 10)),
    "figYe": ("Y-shaped breather, linear profile, t=10",
              _SEED_B, [_FIGY], "linear", _grid(-12, -1, -12, -1, 10.0)),
    "figYf": ("Y-shaped breather, quadratic profile, t=5",
              _SEED_B, [_FIGY], "quadratic", _grid(-17, 3, -17, 3, 5.0)),
    "figYg": ("Y-shaped breather, cubic profile, t=2",
              _SEED_B, [_FIGY], "cubic", _grid(-6, 6, -3.5, 5, 2.0)),
    "figYh": ("Y-shaped breather, sine profile, t=15",
              _SEED_B, [_FIGY], "sine", _grid(-9, 11, -9, 11, 15.0)),
    "fig3a": ("first-order rogue wave, t=0",
              _SEED_R, [_RW1], "linear", _grid(-10, 10, -10, 10)),
    "fig3b": ("first-order rogue wave, t=4",
              _SEED_R, [_RW1], "linear", _grid(-9, 11, -31, -11, 4.0)),
    "fig3c": ("first-order rogue wave, t=8",
              _SEED_R, [_RW1], "linear", _grid(-9, 11, -51, -31, 8.0)),
    "fig3d": ("second-order rogue wave, t=0",
              _SEED_R, [_RW2], "linear", _grid(-10, 10, -10, 10)),
    "fig3e": ("second-order rogue wave, t=40",
              _SEED_R, [_RW2], "linear", _grid(-20, 20, -215, -180, 40.0)),
    "fig3f": ("second-order rogue wave split by v1=100",
              _SEED_R, [{**_RW2, "shifts": [[0, 0], [100, 0]]}], "linear",
              _grid(-15, 15, -15, 15)),
    "fig4a": ("third-order rogue wave, t=0",
              _SEED_R, [_RW3], "linear", _grid(-12, 12, -12, 12)),
    "fig4b": ("third-order rogue wave, t=5",
              _SEED_R, [_RW3], "linear", _grid(-20, 20, -40, -10, 5.0)),
    "fig4c": ("third-order rogue wave split by v1=400 (triangle)",
              _SEED_R, [{**_RW3, "shifts": [[0, 0], [400, 0]]}], "linear",
              _grid(-30, 30, -30, 30)),
    "fig4d": ("third-order rogue wave split by v2=1000 (pentagon)",
              _SEED_R, [{**_RW3, "shifts": [[0, 0], [0, 0], [1000, 0]]}],
              "linear", _grid(-18, 18, -18, 18)),
    "fig5a": ("rogue wave crossing a breather",
              _SEED_R, [_RW1, _BREATHER], "linear", _grid(-20, 20, -20, 20)),
    "fig5b": ("rogue wave beside a breather (v0=w0=16)",
              _SEED_R, [{**_RW1, "shifts": [[16, 16]]}, _BREATHER], "linear",
              _grid(-30, 30, -30, 30)),
    "fig5c": ("rogue wave crossing a Y-shaped breather",
              _SEED_R, [_RW1, _YBREATHER], "linear", _grid(-20, 20, -20, 20)),
    "fig5d": ("rogue wave beside a Y-shaped breather (v0=w0=16)",
              _SEED_R, [{**_RW1, "shifts": [[16, 16]]}, _YBREATHER], "linear",
              _grid(-30, 30, -30, 30)),
    "fig6a": ("second-order rogue wave on a breather",
              _SEED_R, [_RW2, _BREATHER], "linear", _grid(-25, 25, -25, 25)),
    "fig6b": ("split rogue pair on a breather (v1=400)",
              _SEED_R, [{**_RW2, "shifts": [[0, 0], [400, 0]]}, _BREATHER],
              "linear", _grid(-25, 25, -25, 25)),
    "fig6c": ("split rogue pair moved off the breather (v0=40, v1=400)",
              _SEED_R, [{**_RW2, "shifts": [[40, 0], [400, 0]]}, _BREATHER],
              "linear", _grid(-60, 20, -40, 40)),
    "fig6d": ("second-order rogue wave on a Y breather",
              _SEED_R, [_RW2, _YBREATHER], "linear", _grid(-25, 25, -25, 25)),
    "fig6e": ("split rogue pair on a Y breather (v1=200)",
              _SEED_R, [{**_RW2, "shifts": [[0, 0], [200, 0]]}, _YBREATHER],
              "linear", _grid(-25, 25, -25, 25)),
    "fig6f": ("split rogue pair moved off the Y breather (v0=30, v1=400)",
              _SEED_R, [{**_RW2, "shifts": [[30, 0], [400, 0]]}, _YBREATHER],
              "linear", _grid(-50, 20, -35, 35)),
}


def _panel_spec(name: str) -> dict:
    """A new run spec of a built-in panel; its values are shared."""
    return dict(zip(("seed", "charts", "profile", "grid"), _PANELS[name][1:]))


SCENARIOS = {name: Scenario(name, *spec_from_json(_panel_spec(name)), blurb)
             for name, (blurb, *_) in _PANELS.items()}


# ---------------------------------------------------------------------------
# flag parsing
# ---------------------------------------------------------------------------


def _floats_arg(text: str, n: int, what: str) -> tuple:
    parts = text.split(",")
    if len(parts) != n:
        raise ConfigError(f"{what} wants {n} comma-separated values, "
                          f"got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"{what} wants numbers, got {text!r}") from None


def _shift_table(entries) -> tuple:
    """--shift j,v,w entries to a dense (v, w) tuple, zero-filled."""
    table = {}
    for entry in entries:
        j, v, w = _floats_arg(entry, 3, "--shift")
        if j not in range(MAX_FOLDS):
            raise ConfigError(f"--shift index must be a whole number in "
                              f"0..{MAX_FOLDS - 1}, got {entry!r}")
        table[int(j)] = (v, w)
    return tuple(table.get(j, (0.0, 0.0)) for j in range(max(table) + 1))


def _add_family_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lambda", dest="lams", action="append", default=None,
                   metavar="RE,IM", help="spectral parameter (repeatable)")
    p.add_argument("--mult", dest="mults", action="append", default=None,
                   type=int, metavar="K",
                   help="the i-th use sets chart i's multiplicity")
    p.add_argument("--h1", default=None, metavar="RE,IM",
                   help="deformation weight h1")
    p.add_argument("--h2", default=None, metavar="RE,IM",
                   help="deformation weight h2")
    p.add_argument("--l", dest="ells", default=None, metavar="L1,L2,L3",
                   help="eigenfunction weights l1,l2,l3")
    p.add_argument("--shift", dest="shifts", action="append", default=None,
                   metavar="J,V,W", help="rogue shift v_j, w_j (repeatable)")
    p.add_argument("--profile", default=None,
                   choices=[m.value for m in DeformationProfile])
    p.add_argument("--seed", default=None, metavar="zero|A1,A2,B1,B2,D1,D2")
    p.add_argument("--grid", default=None,
                   metavar="XMIN,XMAX,NX,YMIN,YMAX,NY")
    p.add_argument("--t", type=float, default=None, metavar="VALUE")
    p.add_argument("--config", default=None, metavar="PATH",
                   help="JSON file with seed/profile/grid defaults")
    _add_output_flags(p)


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, metavar="PREFIX")
    p.add_argument("--format", default="csv,png", metavar="FMT[,FMT]",
                   help="any of csv, png, bin")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="flwave",
        description="exact localized waves of the two-component "
                    "Fokas-Lenells system via Darboux transformations")
    sub = p.add_subparsers(dest="command", required=True)
    for name, blurb in (
            ("soliton", "deformed soliton on the zero background"),
            ("positon", "degenerate (positon) solution, zero background"),
            ("breather", "breather on a plane-wave background"),
            ("ybreather", "Y-shaped breather on a plane wave"),
            ("rogue", "rogue wave at the critical spectral parameter"),
            ("hybrid", "rogue wave plus breather in one transformation")):
        _add_family_flags(sub.add_parser(name, help=blurb))
    ps = sub.add_parser("scenario", help="run a built-in figure scenario")
    ps.add_argument("name")
    _add_output_flags(ps)
    pv = sub.add_parser("verify",
                        help="Richardson residual check for a scenario")
    pv.add_argument("name")
    sub.add_parser("list", help="list built-in scenarios")
    return p


# ---------------------------------------------------------------------------
# family runs: a built-in panel with fields replaced
# ---------------------------------------------------------------------------

_FAMILY_PANELS = {"soliton": "fig1a", "positon": "fig1e", "breather": "fig2a",
                  "ybreather": "figYa", "rogue": "fig3a", "hybrid": "fig5a"}


def _read_config(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except ValueError as exc:  # malformed JSON, or bytes that are not text
        raise ConfigError(f"config {path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path}: top level must be an object")
    unknown = set(cfg) - {"seed", "profile", "grid"}
    if unknown:
        raise ConfigError(f"config {path}: unknown keys {sorted(unknown)}")
    if not isinstance(cfg.get("grid", {}), dict):
        raise ConfigError(f"config {path}: grid must be an object")
    return cfg


def _family_charts(args, spec: dict) -> list:
    """The spec's chart dicts with the chart flags applied."""
    charts = [dict(c) for c in spec["charts"]]
    if args.lams is not None:
        rogue = next((c for c in charts if c["kind"] == "rogue"), None)
        other = next((c for c in charts if c["kind"] != "rogue"), charts[0])
        picked = []
        for text in args.lams:
            lam = _floats_arg(text, 2, "--lambda")
            critical = rogue is not None and is_critical(
                complex(*lam), seed_from_json(spec["seed"]))
            picked.append({**(rogue if critical else other), "lam": lam})
        charts = picked
    mults = args.mults or []
    if len(mults) > len(charts):
        raise ConfigError(f"{len(mults)} --mult values for "
                          f"{len(charts)} charts")
    for chart, k in zip(charts, mults):
        chart["multiplicity"] = k
    overrides = []
    if args.h1 is not None:
        overrides.append(("--h1", {"h1": _floats_arg(args.h1, 2, "--h1")}))
    if args.h2 is not None:
        overrides.append(("--h2", {"h2": _floats_arg(args.h2, 2, "--h2")}))
    if args.ells is not None:
        ls = _floats_arg(args.ells, 3, "--l")
        overrides.append(("--l", dict(zip(("l1", "l2", "l3"), ls))))
    if args.shifts is not None:
        overrides.append(("--shift", {"shifts": _shift_table(args.shifts)}))
    for flag, values in overrides:
        key = next(iter(values))
        hit = [c for c in charts
               if key in {f.name for f in fields(CHART_KINDS[c["kind"]])}]
        if not hit:
            raise ConfigError(f"no {args.command} chart takes {flag}")
        for chart in hit:
            chart.update(values)
    return charts


def _family_scenario(args) -> Scenario:
    """The family's panel spec, then the --config keys, then the flags."""
    panel = _FAMILY_PANELS[args.command]
    spec = {**_panel_spec(panel), **_read_config(args.config)}
    if args.seed is not None:
        spec["seed"] = "zero" if args.seed == "zero" else dict(
            zip(_SEED_KEYS, _floats_arg(args.seed, 6, "--seed")))
    if args.profile is not None:
        spec["profile"] = args.profile
    if args.grid is not None:
        g = _floats_arg(args.grid, 6, "--grid")
        spec["grid"] = {**spec["grid"], "x": g[:3], "y": g[3:]}
    if args.t is not None:
        spec["grid"] = {**spec["grid"], "t": args.t}
    spec["charts"] = _family_charts(args, spec)
    return Scenario(args.command, *spec_from_json(spec),
                    SCENARIOS[panel].blurb)


# ---------------------------------------------------------------------------
# pipeline stages
# ---------------------------------------------------------------------------


# --format name -> writer of a field grid to a path
_WRITERS = {"csv": partial(export_field, format="csv"),
            "bin": partial(export_field, format="f64bin"),
            "png": render_heatmap}


def run_scenario(s: Scenario, outputs=()) -> int:
    """Evaluate the scenario's grid and write each (format, path) output."""
    # one worker per CPU this process may run on, so `taskset` caps the pool
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    field = evaluate_grid(s.background, s.charts, s.profile, s.grid,
                          workers=cpus)
    for fmt, path in outputs:
        _WRITERS[fmt](field, path)
    a = field.abs_q1
    ok = ~field.mask
    mn = float(a[ok].min()) if ok.any() else float("nan")
    mx = float(a[ok].max()) if ok.any() else float("nan")
    print(f"{s.name}: N={s.charts.folds} grid {s.grid.nx}x{s.grid.ny} "
          f"singular {field.singular_count} "
          f"|q1| min {mn:.6g} max {mx:.6g}")
    if not ok.any():
        print(f"flwave: every node of {s.name} is masked", file=sys.stderr)
        return 3
    return 0


def _outputs(args, name: str) -> tuple:
    prefix = args.out if args.out is not None else name
    formats = [f for f in args.format.split(",") if f]
    for fmt in formats:
        if fmt not in _WRITERS:
            raise ConfigError(f"--format accepts {', '.join(_WRITERS)}; "
                              f"got {fmt!r}")
    return tuple((fmt, f"{prefix}.{fmt}") for fmt in formats)


def _verify_points(frame: GridSpec, x, y, q1) -> list:
    """Interior on-structure nodes, well separated, singular-free: the
    nodes x, y, q1 (NaN at gaps) ranked by descending (|q1|, x, y), each
    taken unless it lies within a tenth of the frame of one taken."""
    ok = ~np.isnan(q1)
    x, y, q1 = x[ok], y[ok], q1[ok]
    # the (|q1|, x, y) triples are distinct: reversing the ascending
    # order gives the descending one
    order = np.lexsort((y, x, np.hypot(q1.real, q1.imag)))[::-1]
    min_sep = max(frame.x_max - frame.x_min, frame.y_max - frame.y_min) / 10
    picked = []
    for x, y in zip(x[order].tolist(), y[order].tolist()):
        if any(abs(x - px) + abs(y - py) < min_sep for px, py in picked):
            continue
        picked.append((x, y))
        if len(picked) == VERIFY_POINTS:
            break
    return [(x, y, frame.t) for x, y in picked]


def verify_scenario(s: Scenario) -> int:
    # check points come from the interior of a coarse copy of the frame,
    # sampled in one call in this process; then one call for both steps
    frame = replace(s.grid, nx=VERIFY_NODES, ny=VERIFY_NODES)
    sampler = solution_sampler(s.background, s.charts, s.profile)
    x, y = (a.ravel() for a in np.meshgrid(frame.xs()[1:-1],
                                            frame.ys()[1:-1]))
    interior = np.column_stack([x, y, np.full(x.size, frame.t)])
    points = _verify_points(frame, x, y, sampler(interior).q1)
    if not points:
        print(f"{s.name}: no usable sample points")
        return 3
    n = len(points)
    reports = pde_residual(sampler, points * 2,
                           [VERIFY_STEP] * n + [VERIFY_STEP / 2] * n)
    coarse, fine = reports[:n], reports[n:]
    ok = True
    checked = 0
    for pt, c, f in zip(points, coarse, fine):
        if c.max_abs == 0.0:
            print(f"{s.name}: ({pt[0]:.3f},{pt[1]:.3f}) residual exactly "
                  "zero, skipping ratio")
            continue
        ratio = f.max_abs / c.max_abs
        good = RATIO_LO <= ratio <= RATIO_HI
        ok = ok and good
        checked += 1
        print(f"{s.name}: point ({pt[0]:.3f},{pt[1]:.3f}) "
              f"residual ratio {ratio:.4f} "
              f"{'ok' if good else 'OUT OF RANGE'}")
    if not checked:
        # every residual was exactly zero: no ratio was checked
        print(f"{s.name}: no usable sample points")
        return 3
    print(f"{s.name}: verify {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 3


def _lookup(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ConfigError(
            f"unknown scenario {name!r}; see `flwave list`") from None


_VALUE_FLAGS = {"--lambda", "--mult", "--h1", "--h2", "--l", "--shift",
                "--profile", "--seed", "--grid", "--t", "--config",
                "--out", "--format"}


def _fuse_negative_values(argv: list) -> list:
    """Join `--flag -7,...` into `--flag=-7,...` so argparse keeps
    negative-number values."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else ""
        if tok in _VALUE_FLAGS and len(nxt) > 1 and nxt[0] == "-" \
                and (nxt[1].isdigit() or nxt[1] == "."):
            out.append(f"{tok}={nxt}")
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def _dispatch(argv) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_fuse_negative_values(list(argv)))
    if args.command == "list":
        for name in sorted(SCENARIOS):
            print(f"{name:8s} {SCENARIOS[name].blurb}")
        return 0
    if args.command == "verify":
        return verify_scenario(_lookup(args.name))
    if args.command == "scenario":
        s = _lookup(args.name)
    else:
        s = _family_scenario(args)
    return run_scenario(s, _outputs(args, s.name))


def main(argv=None) -> int:
    try:
        return _dispatch(argv)
    except ConfigError as exc:
        print(f"flwave: {exc}", file=sys.stderr)
        return 2
    except FlwaveError as exc:
        print(f"flwave: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"flwave: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
