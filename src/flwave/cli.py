"""Command line runner for the localized-wave families.

Each built-in scenario freezes one published panel: the spectral data,
deformation profile, and a grid window over which every node's refined
solve converges.  A family subcommand starts from its panel (soliton
fig1a, positon fig1e, breather fig2a, ybreather figYa, rogue fig3a,
hybrid fig5a); a JSON config file can replace the seed, profile and
grid, and each flag then replaces only the field it names.  Without
--lambda, a rogue chart takes the critical lambda of the run's seed.
"""

import argparse
import json
import os
import sys
from dataclasses import dataclass, replace
from functools import partial

from .dt_engine import MAX_FOLDS, DtConfig, check_compat, solution_sampler
from .errors import ConfigError, FlwaveError
from .grid_render import evaluate_grid, export_field, render_heatmap
from .model import (DeformationProfile, GridSpec, PlaneWaveSeed,
                    SeedBackground, ZeroBackground, grid_from_json,
                    profile_from_json, seed_from_json)
from .spectral import (BreatherChart, RogueChart, ZeroSeedChart,
                       critical_lambda, is_critical)
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


def _builtin_scenarios() -> dict:
    lin = DeformationProfile.LINEAR
    quad = DeformationProfile.QUADRATIC
    cub = DeformationProfile.CUBIC
    sin = DeformationProfile.SINE
    by_letter = {"a": lin, "b": quad, "c": cub, "d": sin,
                 "e": lin, "f": quad, "g": cub, "h": sin}

    zero = ZeroBackground()
    seed_b = PlaneWaveSeed(a1=-1.0, a2=-1.0, b1=-1.0, b2=-2.0,
                           d1=1.0, d2=1.0)
    seed_r = PlaneWaveSeed(a1=-0.5, a2=-0.5, b1=-1.0, b2=-1.0,
                           d1=1.0, d2=1.0)
    lam_s = 1 + 1j
    lam_b = 0.5 + 0.5j
    lam_c = critical_lambda(seed_r.a1, seed_r.d1)
    h_def = 1 + 1j

    def g(x0, x1, y0, y1, t=0.0):
        return GridSpec(x0, x1, y0, y1, 101, 101, t)

    sq = {"lin": g(-12, 12, -12, 12), "cub": g(-7.5, 7.5, -7.5, 7.5)}
    out = {}

    def add(name, background, charts, profile, grid, blurb):
        out[name] = Scenario(name, background, charts, profile, grid, blurb)

    for k in "abcd":
        prof = by_letter[k]
        grid = sq["cub"] if prof is cub else sq["lin"]
        add(f"fig1{k}", zero,
            DtConfig((ZeroSeedChart(lam_s, h_def),)), prof, grid,
            f"deformed soliton, {prof.value} profile")
        add(f"fig1{chr(ord(k) + 4)}", zero,
            DtConfig((ZeroSeedChart(lam_s, h_def, multiplicity=1),)),
            prof, grid, f"deformed positon, {prof.value} profile")

    br = DtConfig((BreatherChart(lam_b, l1=0.0, l2=1.0, l3=1.0,
                                 h1=h_def, h2=-h_def),))
    add("fig2a", seed_b, br, lin, g(-12, 12, -12, 12),
        "deformed breather, linear profile")
    add("fig2b", seed_b, br, quad, g(-12, 12, -12, 12),
        "deformed breather, quadratic profile")
    add("fig2c", seed_b, br, cub, g(-8, 8, -8, 8),
        "deformed breather, cubic profile")
    add("fig2d", seed_b, br, sin, g(-12, 12, -12, 12),
        "deformed breather, sine profile")

    ybr = DtConfig((BreatherChart(lam_b, l1=1.0, l2=1.0, l3=1.0,
                                  h1=h_def, h2=h_def),))
    y_grids = {
        "a": g(-7, 7, -7, 7),
        "b": g(-10, 10, -10, 10),
        "c": g(-6, 6, -1.5, 6),
        "d": g(-10, 10, -10, 10),
        "e": g(-12, -1, -12, -1, t=10.0),
        "f": g(-17, 3, -17, 3, t=5.0),
        "g": g(-6, 6, -3.5, 5, t=2.0),
        "h": g(-9, 11, -9, 11, t=15.0),
    }
    for k in "abcdefgh":
        when = "t=0" if k in "abcd" else f"t={y_grids[k].t:g}"
        add(f"figY{k}", seed_b, ybr, by_letter[k], y_grids[k],
            f"Y-shaped breather, {by_letter[k].value} profile, {when}")

    rw1 = DtConfig((RogueChart(lam_c),))
    rw2 = DtConfig((RogueChart(lam_c, multiplicity=1),))
    rw2s = DtConfig((RogueChart(lam_c, shifts=((0, 0), (100, 0)),
                                multiplicity=1),))
    rw3 = DtConfig((RogueChart(lam_c, multiplicity=2),))
    rw3a = DtConfig((RogueChart(lam_c, shifts=((0, 0), (400, 0)),
                                multiplicity=2),))
    rw3b = DtConfig((RogueChart(lam_c, shifts=((0, 0), (0, 0), (1000, 0)),
                                multiplicity=2),))
    add("fig3a", seed_r, rw1, lin, g(-10, 10, -10, 10),
        "first-order rogue wave, t=0")
    add("fig3b", seed_r, rw1, lin, g(-9, 11, -31, -11, t=4.0),
        "first-order rogue wave, t=4")
    add("fig3c", seed_r, rw1, lin, g(-9, 11, -51, -31, t=8.0),
        "first-order rogue wave, t=8")
    add("fig3d", seed_r, rw2, lin, g(-10, 10, -10, 10),
        "second-order rogue wave, t=0")
    add("fig3e", seed_r, rw2, lin, g(-20, 20, -215, -180, t=40.0),
        "second-order rogue wave, t=40")
    add("fig3f", seed_r, rw2s, lin, g(-15, 15, -15, 15),
        "second-order rogue wave split by v1=100")
    add("fig4a", seed_r, rw3, lin, g(-12, 12, -12, 12),
        "third-order rogue wave, t=0")
    add("fig4b", seed_r, rw3, lin, g(-20, 20, -40, -10, t=5.0),
        "third-order rogue wave, t=5")
    add("fig4c", seed_r, rw3a, lin, g(-30, 30, -30, 30),
        "third-order rogue wave split by v1=400 (triangle)")
    add("fig4d", seed_r, rw3b, lin, g(-18, 18, -18, 18),
        "third-order rogue wave split by v2=1000 (pentagon)")

    hy_br = BreatherChart(lam_b, l1=0.0, l2=1.0, l3=1.0)
    hy_ybr = BreatherChart(lam_b, l1=1.0, l2=1.0, l3=1.0)
    shift16 = ((16, 16),)
    add("fig5a", seed_r, DtConfig((RogueChart(lam_c), hy_br)), lin,
        g(-20, 20, -20, 20), "rogue wave crossing a breather")
    add("fig5b", seed_r,
        DtConfig((RogueChart(lam_c, shifts=shift16), hy_br)), lin,
        g(-30, 30, -30, 30), "rogue wave beside a breather (v0=w0=16)")
    add("fig5c", seed_r, DtConfig((RogueChart(lam_c), hy_ybr)), lin,
        g(-20, 20, -20, 20), "rogue wave crossing a Y-shaped breather")
    add("fig5d", seed_r,
        DtConfig((RogueChart(lam_c, shifts=shift16), hy_ybr)), lin,
        g(-30, 30, -30, 30),
        "rogue wave beside a Y-shaped breather (v0=w0=16)")

    add("fig6a", seed_r,
        DtConfig((RogueChart(lam_c, multiplicity=1), hy_br)), lin,
        g(-25, 25, -25, 25), "second-order rogue wave on a breather")
    add("fig6b", seed_r,
        DtConfig((RogueChart(lam_c, shifts=((0, 0), (400, 0)),
                             multiplicity=1), hy_br)), lin,
        g(-25, 25, -25, 25), "split rogue pair on a breather (v1=400)")
    add("fig6c", seed_r,
        DtConfig((RogueChart(lam_c, shifts=((40, 0), (400, 0)),
                             multiplicity=1), hy_br)), lin,
        g(-60, 20, -40, 40),
        "split rogue pair moved off the breather (v0=40, v1=400)")
    add("fig6d", seed_r,
        DtConfig((RogueChart(lam_c, multiplicity=1), hy_ybr)), lin,
        g(-25, 25, -25, 25), "second-order rogue wave on a Y breather")
    add("fig6e", seed_r,
        DtConfig((RogueChart(lam_c, shifts=((0, 0), (200, 0)),
                             multiplicity=1), hy_ybr)), lin,
        g(-25, 25, -25, 25), "split rogue pair on a Y breather (v1=200)")
    add("fig6f", seed_r,
        DtConfig((RogueChart(lam_c, shifts=((30, 0), (400, 0)),
                             multiplicity=1), hy_ybr)), lin,
        g(-50, 20, -35, 35),
        "split rogue pair moved off the Y breather (v0=30, v1=400)")
    return out


SCENARIOS = _builtin_scenarios()


# ---------------------------------------------------------------------------
# flag parsing
# ---------------------------------------------------------------------------


def _complex_arg(text: str, what: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"{what} wants 're,im', got {text!r}")
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        raise ConfigError(f"{what} wants numbers, got {text!r}") from None


def _floats_arg(text: str, n: int, what: str) -> tuple:
    parts = text.split(",")
    if len(parts) != n:
        raise ConfigError(f"{what} wants {n} comma-separated values, "
                          f"got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"{what} wants numbers, got {text!r}") from None


def _seed_arg(text: str) -> SeedBackground:
    if text == "zero":
        return ZeroBackground()
    vals = _floats_arg(text, 6, "--seed")
    return PlaneWaveSeed(*vals)


def _shift_table(entries) -> tuple:
    """--shift j,v,w entries to a dense (v, w) tuple, zero-filled."""
    table = {}
    for entry in entries:
        j, v, w = _floats_arg(entry, 3, "--shift")
        if j < 0 or j != int(j) or j >= MAX_FOLDS:
            raise ConfigError(f"--shift index must be a whole number in "
                              f"0..{MAX_FOLDS - 1}, got {entry!r}")
        table[int(j)] = (v, w)
    if not table:
        return ()
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
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path}: top level must be an object")
    unknown = set(cfg) - {"seed", "profile", "grid"}
    if unknown:
        raise ConfigError(f"config {path}: unknown keys {sorted(unknown)}")
    return cfg


def _family_charts(args, panel: tuple, background) -> list:
    """The panel's charts with the chart flags applied.

    Without --lambda, a rogue chart takes the critical lambda of the run's
    seed, so rogue and hybrid runs follow --seed and the config's seed.
    """
    charts = list(panel)
    if args.lams is None and isinstance(background, PlaneWaveSeed):
        lam_c = critical_lambda(background.a1, background.d1)
        charts = [replace(c, lam=lam_c) if isinstance(c, RogueChart) else c
                  for c in charts]
    if args.lams is not None:
        rogue = next((c for c in panel if isinstance(c, RogueChart)), None)
        other = next((c for c in panel if not isinstance(c, RogueChart)),
                     panel[0])
        charts = []
        for text in args.lams:
            lam = _complex_arg(text, "--lambda")
            critical = rogue is not None and is_critical(lam, background)
            charts.append(replace(rogue if critical else other, lam=lam))
    mults = args.mults or []
    if len(mults) > len(charts):
        raise ConfigError(f"{len(mults)} --mult values for "
                          f"{len(charts)} charts")
    for i, k in enumerate(mults):
        charts[i] = replace(charts[i], multiplicity=k)
    overrides = []
    if args.h1 is not None:
        overrides.append(("--h1", {"h1": _complex_arg(args.h1, "--h1")}))
    if args.h2 is not None:
        overrides.append(("--h2", {"h2": _complex_arg(args.h2, "--h2")}))
    if args.ells is not None:
        ls = _floats_arg(args.ells, 3, "--l")
        overrides.append(("--l", dict(zip(("l1", "l2", "l3"), ls))))
    if args.shifts is not None:
        overrides.append(("--shift", {"shifts": _shift_table(args.shifts)}))
    for flag, values in overrides:
        key = next(iter(values))
        hit = [i for i, c in enumerate(charts) if hasattr(c, key)]
        if not hit:
            raise ConfigError(f"no {args.command} chart takes {flag}")
        for i in hit:
            charts[i] = replace(charts[i], **values)
    return charts


def _family_scenario(args) -> Scenario:
    """The family's panel, then the --config values, then the flags."""
    s = SCENARIOS[_FAMILY_PANELS[args.command]]
    cfg = _read_config(args.config)
    background, profile, grid = s.background, s.profile, s.grid
    if "seed" in cfg:
        background = seed_from_json(cfg["seed"])
    if "profile" in cfg:
        profile = profile_from_json(cfg["profile"])
    if "grid" in cfg:
        grid = grid_from_json(cfg["grid"])
    if args.seed is not None:
        background = _seed_arg(args.seed)
    if args.profile is not None:
        profile = DeformationProfile.from_name(args.profile)
    if args.grid is not None:
        x0, x1, nx, y0, y1, ny = _floats_arg(args.grid, 6, "--grid")
        grid = GridSpec(x0, x1, y0, y1, nx, ny, grid.t)
    if args.t is not None:
        grid = replace(grid, t=args.t)
    charts = DtConfig(tuple(_family_charts(args, s.charts.charts,
                                           background)))
    check_compat(background, charts)
    return replace(s, name=args.command, background=background,
                   charts=charts, profile=profile, grid=grid)


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


def _verify_points(field):
    """Interior on-structure nodes, well separated, singular-free."""
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
        if len(picked) == VERIFY_POINTS:
            break
    return [(x, y, spec.t) for _, x, y in picked]


def verify_scenario(s: Scenario) -> int:
    # check points come from a coarse serial copy of the frame
    frame = replace(s.grid, nx=VERIFY_NODES, ny=VERIFY_NODES)
    field = evaluate_grid(s.background, s.charts, s.profile, frame)
    sampler = solution_sampler(s.background, s.charts, s.profile)
    points = _verify_points(field)
    if not points:
        print(f"{s.name}: no usable sample points")
        return 3
    ok = True
    for pt in points:
        coarse = pde_residual(sampler, pt, VERIFY_STEP)
        fine = pde_residual(sampler, pt, VERIFY_STEP / 2)
        if coarse.max_abs == 0.0:
            print(f"{s.name}: ({pt[0]:.3f},{pt[1]:.3f}) residual exactly "
                  "zero, skipping ratio")
            continue
        ratio = fine.max_abs / coarse.max_abs
        good = RATIO_LO <= ratio <= RATIO_HI
        ok = ok and good
        print(f"{s.name}: point ({pt[0]:.3f},{pt[1]:.3f}) "
              f"residual ratio {ratio:.4f} "
              f"{'ok' if good else 'OUT OF RANGE'}")
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
