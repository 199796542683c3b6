"""The engine's per-thread workspace: a warm evaluation reuses its memory
instead of faulting it back in, each thread has its own, and no result
handed to a caller aliases it."""

import dataclasses
import mmap
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import flwave
from flwave import evaluate_grid
from flwave.cli import SCENARIOS
from flwave.dt_engine import chunk_points, evaluate_points
from flwave.numerics import solve_stack

try:
    import resource
except ImportError:  # not on every platform
    resource = None

# one warm evaluation may fault in a page or two that the interpreter or
# the allocator moved; before the workspace the engine made 696-1389
MAX_WARM_FAULTS = 10


def _minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _counts_minor_faults() -> bool:
    """Whether touching fresh pages shows up in ru_minflt here.  The pages
    are mapped by mmap itself: freeing a large array would move the C
    allocator's thresholds, and with them the faults being counted."""
    if resource is None:
        return False
    with mmap.mmap(-1, 1 << 20) as pages:
        before = _minor_faults()
        pages[::mmap.PAGESIZE] = b"\1" * (len(pages) // mmap.PAGESIZE)
        return _minor_faults() - before > 0


WARM_FRAMES = [("fig4a", 15), ("fig6a", 15), ("fig1e", 21)]
# counted in a fresh interpreter: what earlier tests allocated and freed
# moves the C allocator's thresholds, and with them its faults
_COUNT_WARM_FAULTS = """
import dataclasses, resource, sys
from flwave import evaluate_grid
from flwave.cli import SCENARIOS
for arg in sys.argv[1:]:
    name, nodes = arg.split(":")
    s = SCENARIOS[name]
    spec = dataclasses.replace(s.grid, nx=int(nodes), ny=int(nodes))
    for _ in range(2):
        evaluate_grid(s.background, s.charts, s.profile, spec)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    evaluate_grid(s.background, s.charts, s.profile, spec)
    print(name, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _run_fresh(script, frames) -> str:
    """The stdout of script run on these (name, nodes) frames in a fresh
    interpreter that imports this flwave."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(flwave.__file__))]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    out = subprocess.run(
        [sys.executable, "-c", script]
        + [f"{name}:{nodes}" for name, nodes in frames],
        env=env, capture_output=True, text=True, timeout=300, check=True)
    return out.stdout


@pytest.fixture(scope="module")
def warm_faults():
    if not _counts_minor_faults():
        pytest.skip("the platform does not count minor page faults")
    return {name: int(count) for name, count in
            (line.split() for line in
             _run_fresh(_COUNT_WARM_FAULTS, WARM_FRAMES).splitlines())}


@pytest.mark.parametrize("name", [name for name, _ in WARM_FRAMES])
def test_a_warm_evaluation_makes_almost_no_page_faults(warm_faults, name):
    assert warm_faults[name] <= MAX_WARM_FAULTS


# what a thread's workspace may hold after the warm frames and one whole
# N = 1 chunk (fig2a at 48x48 nodes): 1.74 MiB with chunks of 64 N = 3
# points, 6.6 MiB with chunks of 256 and temporaries as large as a chunk
MAX_WORKSPACE_BYTES = 2.5 * 2**20
BUDGET_FRAMES = WARM_FRAMES + [("fig2a", 48)]
# sized in a fresh interpreter: earlier tests grow this thread's buffers
_WORKSPACE_BYTES = """
import dataclasses, sys
from flwave import evaluate_grid
from flwave.cli import SCENARIOS
from flwave.numerics import _workspace
for arg in sys.argv[1:]:
    name, nodes = arg.split(":")
    s = SCENARIOS[name]
    evaluate_grid(s.background, s.charts, s.profile,
                  dataclasses.replace(s.grid, nx=int(nodes), ny=int(nodes)))
print(sum(buf.nbytes for buf in _workspace.buffers.values()))
"""


def test_the_workspace_stays_within_its_budget():
    assert chunk_points(SCENARIOS["fig2a"].charts) == 48 * 48
    held = int(_run_fresh(_WORKSPACE_BYTES, BUDGET_FRAMES))
    assert held <= MAX_WORKSPACE_BYTES


def _grid_bytes(name, nodes):
    s = SCENARIOS[name]
    grid = evaluate_grid(s.background, s.charts, s.profile,
                         dataclasses.replace(s.grid, nx=nodes, ny=nodes))
    return grid.q1.tobytes() + grid.q2.tobytes() + grid.mask.tobytes()


def test_each_thread_has_its_own_workspace():
    # N = 3 and N = 1 grids ask for the same buffers at other shapes; a
    # shared workspace would let one thread write into the other's arrays
    jobs = [("fig4a", 15), ("fig2a", 21)] * 2  # more threads than cores
    want = {job: _grid_bytes(*job) for job in set(jobs)}
    got = [[] for _ in jobs]

    def run(k):
        for _ in range(10):
            got[k].append(_grid_bytes(*jobs[k]))

    threads = [threading.Thread(target=run, args=(k,))
               for k in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for job, grids in zip(jobs, got):
        assert grids == [want[job]] * 10


def test_results_keep_their_bytes_after_later_calls():
    rng = np.random.default_rng(21)

    def points(name, count):
        g = SCENARIOS[name].grid
        return np.column_stack([rng.uniform(g.x_min, g.x_max, count),
                                rng.uniform(g.y_min, g.y_max, count),
                                np.full(count, g.t)])

    def evaluate(name, count):
        s = SCENARIOS[name]
        return evaluate_points(s.background, s.charts, s.profile,
                               points(name, count))

    def stack(count, n):
        a = rng.standard_normal((count, n, n)) \
            + 1j * rng.standard_normal((count, n, n))
        return solve_stack(a, rng.standard_normal((count, n)) + 0j)

    held = [*evaluate("fig4a", 100), *stack(50, 9)]
    saved = [a.copy() for a in held]
    # smaller calls, so that no buffer grows away from what is held
    evaluate("fig2a", 40)
    evaluate("fig1e", 30)
    stack(20, 3)
    evaluate("fig4a", 30)
    for a, b in zip(held, saved):
        assert a.tobytes() == b.tobytes()
