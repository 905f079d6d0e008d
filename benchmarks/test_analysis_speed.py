"""Benchmark: the columnar/batched analysis core vs the references.

Runs the :mod:`repro.benchtrack` analysis harness — reference and
vectorized liveness / interference / adjacency interleaved over the full
mibench suite, min-of-repeats per stage — writes ``BENCH_analysis.json``
for the CI artifact upload, and asserts the columnar core's contract:
bit-identical results and a real corpus-batched speedup.  The 3x floor
sits below the quiet-machine measurement (~3.2x), leaving margin for
noisy CI runners; the harness times both sides in the same loop
iterations precisely so that CPU drift cancels out of the ratio.
"""

import json
import os

import pytest

from repro.benchtrack import bench_analysis, write_bench_json

BENCH_JSON = os.path.join(os.path.dirname(__file__), os.pardir,
                          "BENCH_analysis.json")


@pytest.fixture(scope="module")
def analysis_doc():
    return bench_analysis()


def test_batched_identical_to_reference(analysis_doc):
    assert analysis_doc["identical_results"]


def test_batched_speedup(analysis_doc):
    """ISSUE acceptance: >= 3x over the per-function references on
    mibench, analysis stages only (view construction is reported —
    and regression-tracked — separately as ``views_seconds``)."""
    assert analysis_doc["speedup"] >= 3.0, analysis_doc


def test_every_stage_wins(analysis_doc):
    """No stage may regress behind its reference: the batched path is
    unconditionally on by default, so even the weakest stage has to
    pay for itself."""
    for stage, entry in analysis_doc["stages"].items():
        assert entry["speedup"] >= 1.0, (stage, entry)


def test_cold_start_still_wins(analysis_doc):
    """Even charging the batched side for building every columnar view
    from scratch, a first-contact corpus pass must beat the refs."""
    assert analysis_doc["cold_speedup"] >= 1.0, analysis_doc


def test_bench_json_written(analysis_doc):
    doc = write_bench_json(BENCH_JSON, doc={
        "schema": 1, "analysis": analysis_doc,
    })
    with open(BENCH_JSON) as f:
        assert json.load(f) == doc
