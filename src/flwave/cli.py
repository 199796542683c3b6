"""Command line runner for the localized-wave families.

Each built-in scenario freezes one published panel: the spectral data,
deformation profile, and a grid window over which every node's refined
solve converges.  Ad-hoc runs build the same pipeline from flags; a JSON
config file can supply the seed, profile, and grid, with explicit flags
taking precedence.
"""

import argparse
import json
import sys
from dataclasses import dataclass

from .dt_engine import DtConfig, solution_sampler
from .errors import ConfigError, FlwaveError
from .grid_render import (evaluate_grid, export_field, render_heatmap,
                          resolve_workers)
from .model import (DeformationProfile, GridSpec, PlaneWaveSeed,
                    SeedBackground, ZeroBackground, grid_from_json,
                    profile_from_json, seed_from_json)
from .spectral import (BreatherChart, RogueChart, ZeroSeedChart,
                       critical_lambda, discriminant_S)
from .verify import pde_residual

# Richardson bracket for the verify subcommand: halving the step must
# shrink a second-order residual by about 4.
RATIO_LO = 0.2
RATIO_HI = 0.3
VERIFY_STEP = 1e-3
VERIFY_POINTS = 5


@dataclass(frozen=True)
class Scenario:
    name: str
    background: SeedBackground
    charts: DtConfig
    profile: DeformationProfile
    grid: GridSpec
    outputs: tuple = ()
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
        out[name] = Scenario(name, background, charts, profile, grid,
                             (), blurb)

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


def _grid_arg(text: str, t: float) -> GridSpec:
    x0, x1, nx, y0, y1, ny = _floats_arg(text, 6, "--grid")
    return GridSpec(x0, x1, y0, y1, nx, ny, t)


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
        if j < 0 or j != int(j):
            raise ConfigError(f"--shift index must be a whole number >= 0, "
                              f"got {entry!r}")
        table[int(j)] = (v, w)
    if not table:
        return ()
    return tuple(table.get(j, (0.0, 0.0)) for j in range(max(table) + 1))


def _add_family_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lambda", dest="lams", action="append", default=None,
                   metavar="RE,IM", help="spectral parameter (repeatable)")
    p.add_argument("--mult", dest="mults", action="append", default=None,
                   type=int, metavar="K",
                   help="multiplicity of the preceding --lambda")
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
# family assembly
# ---------------------------------------------------------------------------

_FAMILY_SEEDS = {
    "soliton": "zero",
    "positon": "zero",
    "breather": PlaneWaveSeed(-1.0, -1.0, -1.0, -2.0, 1.0, 1.0),
    "ybreather": PlaneWaveSeed(-1.0, -1.0, -1.0, -2.0, 1.0, 1.0),
    "rogue": PlaneWaveSeed(-0.5, -0.5, -1.0, -1.0, 1.0, 1.0),
    "hybrid": PlaneWaveSeed(-0.5, -0.5, -1.0, -1.0, 1.0, 1.0),
}

_FAMILY_GRIDS = {
    "soliton": (-12.0, 12.0, -12.0, 12.0),
    "positon": (-12.0, 12.0, -12.0, 12.0),
    "breather": (-12.0, 12.0, -12.0, 12.0),
    "ybreather": (-7.0, 7.0, -7.0, 7.0),
    "rogue": (-10.0, 10.0, -10.0, 10.0),
    "hybrid": (-20.0, 20.0, -20.0, 20.0),
}


def _is_critical(lam: complex, seed: PlaneWaveSeed) -> bool:
    scale = 1.0 + abs(lam) ** 4 + seed.a1 * seed.a1
    return abs(discriminant_S(lam, seed.a1, seed.d1)) <= 1e-8 * scale


def _family_scenario(args) -> Scenario:
    family = args.command
    cfg = {}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {args.config}: {exc}") from None
        if not isinstance(cfg, dict):
            raise ConfigError(f"config {args.config}: top level must be "
                              "an object")
        unknown = set(cfg) - {"seed", "profile", "grid"}
        if unknown:
            raise ConfigError(f"config {args.config}: unknown keys "
                              f"{sorted(unknown)}")

    if args.seed is not None:
        background = _seed_arg(args.seed)
    elif "seed" in cfg:
        background = seed_from_json(cfg["seed"])
    else:
        preset = _FAMILY_SEEDS[family]
        background = ZeroBackground() if preset == "zero" else preset

    if args.profile is not None:
        profile = DeformationProfile.from_name(args.profile)
    elif "profile" in cfg:
        profile = profile_from_json(cfg["profile"])
    else:
        profile = DeformationProfile.LINEAR

    grid_json = grid_from_json(cfg["grid"]) if "grid" in cfg else None
    t = args.t if args.t is not None else \
        (grid_json.t if grid_json is not None else 0.0)
    if args.grid is not None:
        grid = _grid_arg(args.grid, t)
    elif grid_json is not None:
        grid = GridSpec(grid_json.x_min, grid_json.x_max, grid_json.y_min,
                        grid_json.y_max, grid_json.nx, grid_json.ny, t)
    else:
        x0, x1, y0, y1 = _FAMILY_GRIDS[family]
        grid = GridSpec(x0, x1, y0, y1, 101, 101, t)

    zero_based = family in ("soliton", "positon")
    if zero_based and not isinstance(background, ZeroBackground):
        raise ConfigError(f"{family} runs on the zero background; "
                          "drop the plane-wave seed")
    if not zero_based and isinstance(background, ZeroBackground):
        raise ConfigError(f"{family} needs a plane-wave seed, not zero")

    h1 = _complex_arg(args.h1, "--h1") if args.h1 is not None else None
    h2 = _complex_arg(args.h2, "--h2") if args.h2 is not None else None
    ells = _floats_arg(args.ells, 3, "--l") if args.ells is not None \
        else None
    shifts = _shift_table(args.shifts) if args.shifts is not None else ()

    if args.lams is not None:
        lams = [_complex_arg(s, "--lambda") for s in args.lams]
    elif family in ("soliton", "positon"):
        lams = [1 + 1j]
    elif family in ("breather", "ybreather"):
        lams = [0.5 + 0.5j]
    elif family == "rogue":
        lams = [critical_lambda(background.a1, background.d1)]
    else:
        lams = [critical_lambda(background.a1, background.d1), 0.5 + 0.5j]
    mults = list(args.mults) if args.mults is not None else []
    if len(mults) > len(lams):
        raise ConfigError("more --mult values than --lambda values")
    default_mult = 1 if family == "positon" else 0
    mults += [default_mult] * (len(lams) - len(mults))

    charts = []
    for lam, mult in zip(lams, mults):
        if zero_based:
            charts.append(ZeroSeedChart(
                lam, h1 if h1 is not None else 1 + 1j, mult))
        elif family in ("breather", "ybreather"):
            ybranch = family == "ybreather"
            ls = ells if ells is not None else \
                ((1.0, 1.0, 1.0) if ybranch else (0.0, 1.0, 1.0))
            c_h1 = h1 if h1 is not None else 1 + 1j
            c_h2 = h2 if h2 is not None else (c_h1 if ybranch else -c_h1)
            charts.append(BreatherChart(lam, ls[0], ls[1], ls[2],
                                        c_h1, c_h2, mult))
        elif family == "rogue":
            charts.append(RogueChart(lam, shifts, mult))
        elif _is_critical(lam, background):
            charts.append(RogueChart(lam, shifts, mult))
        else:
            ls = ells if ells is not None else (0.0, 1.0, 1.0)
            charts.append(BreatherChart(lam, ls[0], ls[1], ls[2],
                                        h1 if h1 is not None else 0j,
                                        h2 if h2 is not None else 0j,
                                        mult))
    return Scenario(family, background, DtConfig(tuple(charts)), profile,
                    grid)


# ---------------------------------------------------------------------------
# pipeline stages
# ---------------------------------------------------------------------------


def run_scenario(s: Scenario) -> int:
    field = evaluate_grid(s.background, s.charts, s.profile, s.grid,
                          workers=resolve_workers())
    for fmt, path in s.outputs:
        if fmt == "csv":
            export_field(field, path, "csv")
        elif fmt == "bin":
            export_field(field, path, "f64bin")
        elif fmt == "png":
            render_heatmap(field, path)
        else:
            raise ConfigError(f"unknown output format {fmt!r}")
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


def _with_outputs(s: Scenario, args) -> Scenario:
    prefix = args.out if args.out is not None else s.name
    formats = [f for f in args.format.split(",") if f]
    for fmt in formats:
        if fmt not in ("csv", "png", "bin"):
            raise ConfigError(f"--format accepts csv, png, bin; got {fmt!r}")
    outputs = tuple((fmt, f"{prefix}.{fmt}") for fmt in formats)
    return Scenario(s.name, s.background, s.charts, s.profile, s.grid,
                    outputs, s.blurb)


def _verify_points(s: Scenario, field):
    """Interior on-structure nodes, well separated, singular-free."""
    xs, ys = s.grid.xs(), s.grid.ys()
    cand = []
    a = field.abs_q1
    for j in range(1, s.grid.ny - 1):
        for i in range(1, s.grid.nx - 1):
            if not field.mask[j, i]:
                cand.append((float(a[j, i]), xs[i], ys[j]))
    cand.sort(reverse=True)
    min_sep = max(s.grid.x_max - s.grid.x_min,
                  s.grid.y_max - s.grid.y_min) / 10
    picked = []
    for mag, x, y in cand:
        if any(abs(x - px) + abs(y - py) < min_sep for _, px, py in picked):
            continue
        picked.append((mag, x, y))
        if len(picked) == VERIFY_POINTS:
            break
    return [(x, y, s.grid.t) for _, x, y in picked]


def verify_scenario(s: Scenario) -> int:
    field = evaluate_grid(s.background, s.charts, s.profile, s.grid,
                          workers=resolve_workers())
    sampler = solution_sampler(s.background, s.charts, s.profile)
    points = _verify_points(s, field)
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
    return run_scenario(_with_outputs(s, args))


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
