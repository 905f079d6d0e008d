"""Benchmark: the RegN sweep on the shared worker fleet vs serial.

``perfbench`` runs its workloads serially, so the fleet's contract —
``jobs=2`` never loses to the serial sweep — is timed here, on the
default grid ``repro sweep`` runs: every kernel at every RegN with 20
remap restarts, ~1.3 s serially on a 2-vCPU host.  A smaller grid
times the host rather than the fleet: two kernels take ~25 ms, the
slower one ~16 ms, and a 0.6 ms round trip on warm workers leaves
nothing to gain.  Each side is the best of three runs; the fleet is
spun up outside the timed region, and the parallel points must equal
the serial ones.
"""

import os
import time

from repro.experiments.sweep import run_regn_sweep
from repro.parallel import get_fleet
from repro.workloads import MIBENCH

REPEATS = 3


def _best_of(jobs):
    best, result = float("inf"), None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        result = run_regn_sweep(MIBENCH, jobs=jobs)
        best = min(best, time.perf_counter() - t0)
    return result, best


def test_sweep_jobs2_not_a_regression():
    """On a multi-core host the fleet must pay for itself (>= 1.0); on
    a single core every job count clamps to the serial path, so only
    near-parity is asserted (dispatch overhead must stay negligible)."""
    serial, t_serial = _best_of(1)
    get_fleet(2).warm()
    parallel, t_parallel = _best_of(2)
    assert parallel.points == serial.points
    floor = 1.0 if (os.cpu_count() or 1) >= 2 else 0.85
    speedup = t_serial / t_parallel
    assert speedup >= floor, (t_serial, t_parallel)
