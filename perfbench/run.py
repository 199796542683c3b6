"""Benchmark of flwave, run from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It imports flwave from the checkout's src/ (nothing is installed), makes
the workload's inputs from the seed, repeats whole rounds of the
workload's operations until S seconds have passed, checks every output,
and prints one JSON line last: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1.  See README.md in this directory.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import checks
import workloads
from tracer import GRID_SPAN, Tracer, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "_out")

# fresh interpreters started per run to time set-up; the median is reported
SETUP_PROBES = 7

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms",
                    "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "spectral.jets_us_per_pt": "us",
    "spectral.triples_per_pt": "count",
    "dt_engine.assembly_us_per_pt": "us",
    "dt_engine.ratio_us_per_pt": "us",
    "dt_engine.eval_us_per_pt": "us",
    "numerics.solve_us_per_pt": "us",
    "numerics.solve_calls_per_pt": "count",
    "grid_render.loop_us_per_pt": "us",
    "grid_render.csv_ms": "ms",
    "grid_render.bin_ms": "ms",
    "grid_render.png_ms": "ms",
    "grid_render.masked_nodes": "count",
    "grid_render.pool_efficiency": "ratio",
    "verify.residual_ms": "ms",
    "verify.peak_ms": "ms",
    "verify.samples_per_residual": "count",
    "verify.nodes_per_check_point": "count",
    "cli.import_ms": "ms",
    "trace.overhead_pct": "%",
}


def use_checkout_source() -> None:
    """Import flwave from this checkout's src/, or stop before any output."""
    if not os.path.isfile(os.path.join(SRC, "flwave", "__init__.py")):
        sys.exit(f"run.py: no flwave package under {SRC}")
    sys.path.insert(0, SRC)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup_probe(args) -> None:
    """Child side of a set-up measurement: import, build inputs, report."""
    t0 = time.perf_counter()
    use_checkout_source()
    import flwave.cli  # noqa: F401  (the import being timed)
    import_ms = (time.perf_counter() - t0) * 1e3
    workloads.build(args.workload, workloads.public_api(), args.seed, OUT)
    print(f"ready {import_ms!r}", flush=True)


def measure_setup(args) -> tuple[list, list]:
    """Fresh interpreter to first operation, timed from outside."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0"]
    setup_s, import_ms = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            child.stdout.read()
            code = child.wait(timeout=60)
        if code != 0 or not line.startswith("ready "):
            sys.exit(f"run.py: set-up probe failed (exit {code})")
        setup_s.append(elapsed)
        import_ms.append(float(line.split()[1]))
    return setup_s, import_ms


class Stretch:
    """Operations run back to back in whole rounds, and what came of them."""

    def __init__(self):
        self.times = []
        self.round_p50 = []
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.grids = 0
        self.masked = 0
        self.errors = []

    @property
    def ops_per_s(self) -> float:
        """Operations per second of operation time, over whole rounds."""
        return len(self.times) / sum(self.times) if self.times else 0.0


def run_round(work, st: Stretch, tracer=None) -> None:
    """One round of the workload's operations, each timed and checked."""
    first = len(st.times)
    for op in work.ops:
        st.attempted += 1
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # counted, reported, and the run goes on
            st.failed += 1
            st.errors.append(f"FAILED {op.label}: {exc!r}")
            continue
        st.times.append(time.perf_counter() - t0)
        # the checks' own calls into flwave are not part of the trace
        if tracer is not None:
            tracer.enabled = False
        try:
            op.check(result)
        except checks.CheckError as exc:
            st.errors.append(f"WRONG {exc}")
        finally:
            if tracer is not None:
                tracer.enabled = True
        mask = getattr(result, "mask", None)
        if mask is not None:
            st.grids += 1
            st.masked += int(mask.sum())
    st.rounds += 1
    if len(st.times) > first:
        st.round_p50.append(statistics.median(st.times[first:]))


def run_rounds(work, seconds: float) -> Stretch:
    st = Stretch()
    start = time.perf_counter()
    while True:
        run_round(work, st)
        if time.perf_counter() - start >= seconds:
            return st


def run_traced(work, traced_work, tracer, seconds: float):
    """Untraced and traced rounds in turn, so that drift in the machine's
    speed falls on both and their difference is the tracing overhead."""
    plain, traced = Stretch(), Stretch()
    start = time.perf_counter()
    while True:
        run_round(work, plain)
        tracer.install()
        try:
            run_round(traced_work, traced, tracer)
        finally:
            tracer.uninstall()
        if time.perf_counter() - start >= seconds:
            return plain, traced


def run_final(work, api, traced: bool, st: Stretch) -> dict:
    """The workload's once-per-run checks (and traced extras)."""
    try:
        return work.final(api, traced)
    except checks.CheckError as exc:
        st.errors.append(f"WRONG {exc}")
        return {}


def tail_percentile(times):
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(times)
    if n < 40:
        return None
    p = math.floor(100 * (n - 10) / n)
    ranked = sorted(times)
    return p, ranked[math.ceil(p * n / 100) - 1], n


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def traced_api(api, tracer):
    spanned = {}
    for attr, span in workloads.API_SPANS.items():
        fn = getattr(api, attr)
        spanned[attr] = tracer.wrap_grid(fn) if span == GRID_SPAN \
            else tracer.wrap(span, fn)
    return type(api)(**spanned)


def end_to_end(args, work, api, setup_s):
    """Untraced rounds: the metrics a user of flwave would see."""
    stretch = run_rounds(work, args.seconds)
    run_final(work, api, False, stretch)
    values = {
        "setup_s": statistics.median(setup_s),
        "ops_per_s": stretch.ops_per_s,
        # the median operation of each round, averaged over the rounds: a
        # slow stretch of the shared machine then moves the figure in
        # proportion to its length instead of flipping the run's median
        "op_ms_p50": statistics.mean(stretch.round_p50) * 1e3
        if stretch.round_p50 else 0.0,
        "peak_rss_mb": peak_rss_mb(),
    }
    tail = tail_percentile(stretch.times)
    if tail is not None:
        p, value, n = tail
        print(f"reference: op_ms_p{p} = {value * 1e3:.4f} ms "
              f"over {n} operations")
    metrics = {k: {"value": values[k], "unit": unit}
               for k, unit in END_TO_END_UNITS.items()}
    return [stretch], metrics, {"op_s": stretch.times}


def per_layer(args, work, api, outdir, import_ms):
    """Alternating untraced and traced rounds: the per-layer metrics."""
    tracer = Tracer()
    traced_work = workloads.build(args.workload, traced_api(api, tracer),
                                  args.seed, outdir)
    plain, stretch = run_traced(work, traced_work, tracer, args.seconds)
    layers = layer_metrics(tracer)
    layers.update(run_final(work, api, True, stretch))
    layers["grid_render.masked_nodes"] = \
        stretch.masked / stretch.rounds if stretch.grids else None
    layers["cli.import_ms"] = statistics.median(import_ms)
    layers["trace.overhead_pct"] = \
        100.0 * (1.0 - stretch.ops_per_s / plain.ops_per_s) \
        if plain.ops_per_s else None
    absent = [k for k in PER_LAYER_UNITS if layers.get(k) is None]
    print(f"traced: ops/s untraced {plain.ops_per_s:.4f} traced "
          f"{stretch.ops_per_s:.4f}; absent on this workload: "
          f"{', '.join(absent) or 'none'}; replaced names missing: "
          f"{', '.join(tracer.absent) or 'none'}")
    metrics = {k: {"value": float(layers.get(k) or 0.0), "unit": unit}
               for k, unit in PER_LAYER_UNITS.items()}
    return [plain, stretch], metrics, tracer.summary()


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    use_checkout_source()
    # the CLI's default pool size is os.cpu_count(); a cap left in the
    # environment would change what verify-cmd measures
    os.environ.pop("FLWAVE_THREADS", None)
    setup_s, import_ms = measure_setup(args)

    outdir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    os.makedirs(outdir, exist_ok=True)
    try:
        api = workloads.public_api()
        work = workloads.build(args.workload, api, args.seed, outdir)
        if args.trace:
            runs, metrics, detail = per_layer(args, work, api, outdir,
                                              import_ms)
        else:
            runs, metrics, detail = end_to_end(args, work, api, setup_s)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    errors = [e for r in runs for e in r.errors]
    for line in errors[:20]:
        print(line, file=sys.stderr)
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    result = {"correct": not any(e.startswith("WRONG") for e in errors),
              "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace"
                                f"{args.trace}.json"), "w") as fh:
        json.dump({"result": result, "setup_s": setup_s,
                   "import_ms": import_ms,
                   "rounds": [r.rounds for r in runs], "detail": detail},
                  fh, indent=1)
    print(f"{args.workload} seed {args.seed}: "
          f"{sum(r.rounds for r in runs)} rounds, {attempted} operations, "
          f"{failed} failed, {len(errors)} errors")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
