"""Benchmark: the lockstep remap descent vs the O(E) reference.

Runs the :mod:`repro.benchtrack` harness — the full RegN=16 / 100-restart
descent schedule on sha and a RegN=64 / 20-restart one, reference vs the
search's descent, the RegN sweep
across a jobs sweep against the shared worker fleet, and the wire codec
against pickle — writes ``BENCH_remap.json`` for the CI artifact upload,
and asserts the properties the rewrites promised: identical results, a
real descent speedup, jobs=2 at or above serial, and a wire payload
materially smaller than pickle.  The floors asserted here sit below the
quiet-machine measurements, leaving margin for noisy CI runners.
"""

import json
import os

import pytest

from repro.benchtrack import (bench_remap_descent, bench_sweep, bench_wire,
                              write_bench_json)

BENCH_JSON = os.path.join(os.path.dirname(__file__), os.pardir,
                          "BENCH_remap.json")


@pytest.fixture(scope="module")
def remap_doc():
    return bench_remap_descent(workload="sha", reg_n=16, restarts=100)


@pytest.fixture(scope="module")
def remap_wide_doc():
    return bench_remap_descent(workload="sha", reg_n=64, restarts=20)


@pytest.fixture(scope="module")
def sweep_doc():
    return bench_sweep(n_workloads=2, reg_ns=(8, 12), remap_restarts=4,
                       jobs=2)


@pytest.fixture(scope="module")
def wire_doc():
    return bench_wire(n_workloads=8, repeats=50)


def test_incremental_identical_to_reference(remap_doc):
    assert remap_doc["identical_results"]


def test_incremental_speedup(remap_doc):
    assert remap_doc["speedup"] >= 3.0, remap_doc


def test_wide_identical_to_reference(remap_wide_doc):
    assert remap_wide_doc["identical_results"]


def test_wide_no_slowdown(remap_wide_doc):
    """At RegN=64 the per-start vectorised engine this descent replaced
    ran 39x faster than the reference (sha, 20 restarts, on a 2-vCPU
    x86-64 host); the lockstep descent must not fall below that (it
    measured 145x there)."""
    assert remap_wide_doc["speedup"] >= 39.0, remap_wide_doc


def test_sweep_parallel_identical(sweep_doc):
    assert sweep_doc["identical_results"]
    assert all(e["identical_results"] for e in sweep_doc["jobs_sweep"])


def test_sweep_jobs2_not_a_regression(sweep_doc):
    """The fleet's contract: jobs=2 must never lose to serial.  On a
    multi-core runner the fleet must pay for itself (>= 1.0); on a
    single core every job count clamps to the serial path, so we only
    assert near-parity (dispatch overhead must stay negligible)."""
    entry = next(e for e in sweep_doc["jobs_sweep"] if e["jobs"] == 2)
    floor = 1.0 if sweep_doc["cpus"] >= 2 else 0.85
    assert entry["speedup"] >= floor, sweep_doc


def test_wire_beats_pickle_on_size(wire_doc):
    assert wire_doc["bytes_ratio"] >= 1.5, wire_doc


def test_bench_json_written(remap_doc, remap_wide_doc, sweep_doc,
                            wire_doc):
    doc = write_bench_json(BENCH_JSON, doc={
        "schema": 1, "remap": remap_doc, "remap_wide": remap_wide_doc,
        "sweep": sweep_doc, "wire": wire_doc,
    })
    with open(BENCH_JSON) as f:
        assert json.load(f) == doc


def test_engine_descend_throughput(benchmark, remap_doc):
    """Track the descent's absolute rate over benchmark history."""
    from repro.analysis.frequency import estimate_block_frequencies
    from repro.regalloc.iterated import iterated_allocate
    from repro.regalloc.remap import _descend_starts, _edge_list, _start_perms
    from repro.workloads import get_workload

    fn = iterated_allocate(get_workload("sha").function(), 16).fn
    freq = estimate_block_frequencies(fn)
    edges = _edge_list(fn, 16, "src_first", freq)
    free = list(range(16))
    starts = _start_perms(list(range(16)), free, 20, 0)

    results = benchmark(lambda: _descend_starts(edges, 16, 8, free, starts))
    assert min(cost for cost, _ in results) >= 0
