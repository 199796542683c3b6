"""Per-layer spans recorded from outside the program.

The program is not changed.  Spans are put around module-level names
that the package calls through its own module globals (replacing the
attribute reaches every internal call), and around the benchmark's own
calls into the public functions.  Spans are aggregated in memory as they
close, keyed by (parent span, span), so a run of millions of samples
keeps a few dozen counters instead of millions of records.
"""
from __future__ import annotations

import importlib
import time
from collections import defaultdict

# (module, attribute, span) for names the program calls through its own
# globals.  evaluate_solution is imported into grid_render by name, so it
# is replaced in both modules.
INTERNAL_SPANS = (
    ("flwave.dt_engine", "build_triple", "spectral.jets"),
    ("flwave.dt_engine", "assemble_system", "dt_engine.assembly"),
    ("flwave.dt_engine", "det_with_exponent", "numerics.solve"),
    ("flwave.dt_engine", "background_field", "dt_engine.background"),
    ("flwave.dt_engine", "evaluate_solution", "dt_engine.eval"),
    ("flwave.grid_render", "evaluate_solution", "dt_engine.eval"),
    ("flwave.cli", "evaluate_grid", "grid_render.grid"),
    ("flwave.cli", "pde_residual", "verify.pde_residual"),
)

GRID_SPAN = "grid_render.grid"
POOL_SPAN = "grid_render.grid_pool"


class Tracer:
    """Aggregating span recorder; inert until install() or wrap()."""

    def __init__(self):
        # (parent, name) -> [calls, seconds, seconds inside child spans]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters = defaultdict(int)
        self.enabled = True
        self.absent = []
        self._stack = []
        self._restore = []

    def wrap(self, name: str, fn):
        stats, stack, clock = self.stats, self._stack, time.perf_counter

        def spanned(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent = stack[-1] if stack else None
                entry = stats[(parent[0] if parent else None, name)]
                entry[0] += 1
                entry[1] += dt
                entry[2] += frame[1]
                if parent is not None:
                    parent[1] += dt
        spanned.__wrapped__ = fn
        return spanned

    def wrap_grid(self, fn):
        """evaluate_grid, spanned apart when it runs the process pool, with
        the nodes it evaluates counted per calling span."""
        serial, pooled = self.wrap(GRID_SPAN, fn), self.wrap(POOL_SPAN, fn)

        def grid(background, config, profile, spec, workers=1, **kwargs):
            if self.enabled:
                parent = self._stack[-1][0] if self._stack else None
                self.counters[f"nodes:{parent}"] += spec.nx * spec.ny
            run = pooled if workers > 1 else serial
            return run(background, config, profile, spec, workers=workers,
                       **kwargs)
        grid.__wrapped__ = fn
        return grid

    def install(self) -> None:
        """Replace the program's internal names with spanned versions."""
        self.absent = []
        for module_name, attr, span in INTERNAL_SPANS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            spanned = self.wrap_grid(fn) if span == GRID_SPAN \
                else self.wrap(span, fn)
            setattr(module, attr, spanned)
            self._restore.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    # -- aggregates ---------------------------------------------------------

    def calls(self, name: str, parent: str | None = "*") -> int:
        return sum(v[0] for (p, n), v in self.stats.items()
                   if n == name and (parent == "*" or p == parent))

    def seconds(self, name: str) -> float:
        return sum(v[1] for (_, n), v in self.stats.items() if n == name)

    def self_seconds(self, name: str) -> float:
        return sum(v[1] - v[2] for (_, n), v in self.stats.items()
                   if n == name)

    def summary(self) -> dict:
        return {f"{p or '-'} > {n}": {"calls": v[0], "s": v[1],
                                      "self_s": v[1] - v[2]}
                for (p, n), v in sorted(self.stats.items(),
                                        key=lambda kv: str(kv[0]))}


def _per(num: float, den: float, scale: float = 1.0):
    return num / den * scale if den else None


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer figures from one traced stretch of a workload.

    A figure whose spans never occurred on this workload is None: the
    workload does not exercise that layer, or a refactor removed the name.
    """
    pts = tr.calls("dt_engine.eval")
    res = tr.calls("verify.pde_residual")
    # verify_scenario checks each point with a pair of residuals
    checked = tr.calls("verify.pde_residual", parent="cli.verify") / 2
    return {
        "spectral.jets_us_per_pt": _per(tr.seconds("spectral.jets"), pts, 1e6),
        "spectral.triples_per_pt": _per(tr.calls("spectral.jets"), pts),
        "dt_engine.assembly_us_per_pt":
            _per(tr.seconds("dt_engine.assembly"), pts, 1e6),
        # everything evaluate_solution does outside jets, assembly and the
        # determinants: background field, ratios, range checks
        "dt_engine.ratio_us_per_pt":
            _per(tr.self_seconds("dt_engine.eval")
                 + tr.seconds("dt_engine.background"), pts, 1e6),
        "dt_engine.eval_us_per_pt":
            _per(tr.seconds("dt_engine.eval"), pts, 1e6),
        "numerics.solve_us_per_pt":
            _per(tr.seconds("numerics.solve"), pts, 1e6),
        "numerics.solve_calls_per_pt": _per(tr.calls("numerics.solve"), pts),
        "grid_render.loop_us_per_pt":
            _per(tr.self_seconds(GRID_SPAN),
                 tr.calls("dt_engine.eval", parent=GRID_SPAN), 1e6),
        "grid_render.csv_ms": _per(tr.seconds("grid_render.csv"),
                                   tr.calls("grid_render.csv"), 1e3),
        "grid_render.bin_ms": _per(tr.seconds("grid_render.bin"),
                                   tr.calls("grid_render.bin"), 1e3),
        "grid_render.png_ms": _per(tr.seconds("grid_render.png"),
                                   tr.calls("grid_render.png"), 1e3),
        "verify.residual_ms": _per(tr.seconds("verify.pde_residual"), res,
                                   1e3),
        "verify.peak_ms": _per(tr.seconds("verify.peak_search"),
                               tr.calls("verify.peak_search"), 1e3),
        "verify.samples_per_residual":
            _per(tr.calls("dt_engine.eval", parent="verify.pde_residual"),
                 res),
        "verify.nodes_per_check_point":
            _per(tr.counters["nodes:cli.verify"], checked),
    }
