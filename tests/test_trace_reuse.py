"""The trace-reuse layer: derived traces must equal from-scratch runs.

Register allocation preserves the dynamic block path and every ``ld``/``st``
effective address, so a recording of the *input* function can be replayed
against any allocated variant (:mod:`repro.machine.reuse`).  These tests
pin the contract: for every workload × setup pair, the derived columnar
trace — columns, step count, per-block instruction counts and the timed
:class:`CycleReport` — is identical to interpreting the allocated function
from scratch.  Setups run with ``use_ilp=False``: the ILP spiller is
time-limited and therefore not run-to-run deterministic, which would make
an A/B comparison meaningless.
"""

import pytest

from repro.ir import Interpreter
from repro.ir.trace import derive_trace
from repro.machine import (LOWEND, LowEndTimingModel, clear_recorded_runs,
                           derive_execution, interpret_or_derive,
                           record_reference_run)
from repro.workloads.mibench import MIBENCH

WORKLOADS = {w.name: w for w in MIBENCH}
SETUPS = ["baseline", "remapping", "select"]


def setup_module(module):
    clear_recorded_runs()


def report_fields(report):
    return (report.cycles, report.instructions, report.icache_misses,
            report.dcache_misses, report.dcache_accesses,
            report.branch_penalties, report.setlr_executed)


def column(col):
    return col.tolist() if hasattr(col, "tolist") else list(col)


def allocated(w, setup):
    from repro.regalloc.pipeline import run_setup

    return run_setup(w.function(), setup, base_k=8, reg_n=12, diff_n=8,
                     remap_restarts=5, use_ilp=False).final_fn


class TestDerivedEqualsInterpreted:
    @pytest.mark.parametrize("name", ["crc32", "sha", "dijkstra"])
    @pytest.mark.parametrize("setup", SETUPS)
    def test_derived_trace_matches_fresh_run(self, name, setup):
        w = WORKLOADS[name]
        fn = w.function()
        args = w.default_args
        recorded = record_reference_run(fn, args)
        assert recorded is not None, "MIBENCH kernels fit the fast engine"

        final_fn = allocated(w, setup)
        derived = derive_execution(recorded, final_fn)
        assert derived is not None, "allocation must keep the trace derivable"
        fresh = Interpreter(trace_format="columnar").run(final_fn, args)
        assert fresh.columnar is not None

        assert derived.steps == fresh.steps
        for col in ("static_index", "op_code", "mem_addr", "block_id"):
            assert column(getattr(derived.columnar, col)) \
                == column(getattr(fresh.columnar, col)), col
        assert derived.block_instr_counts == fresh.block_instr_counts

        model = LowEndTimingModel(LOWEND)
        assert report_fields(model.time(derived.columnar)) \
            == report_fields(model.time(fresh.columnar))

    @pytest.mark.parametrize("name", ["bitcount", "fft"])
    def test_interpret_or_derive_prefers_derivation(self, name):
        w = WORKLOADS[name]
        fn = w.function()
        args = w.default_args
        recorded = record_reference_run(fn, args)
        final_fn = allocated(w, "remapping")
        result = interpret_or_derive(final_fn, args, recorded)
        fresh = Interpreter(trace_format="columnar").run(final_fn, args)
        assert result.return_value == fresh.return_value
        assert result.steps == fresh.steps
        assert column(result.columnar.static_index) \
            == column(fresh.columnar.static_index)


class TestStructuralGuard:
    def test_incompatible_function_is_rejected(self, sum_fn, diamond_fn):
        recorded = record_reference_run(sum_fn, (5,))
        assert recorded is not None
        assert derive_trace(recorded.columnar, diamond_fn) is None
        assert derive_execution(recorded, diamond_fn) is None

    def test_interpret_or_derive_falls_back(self, sum_fn, diamond_fn):
        recorded = record_reference_run(sum_fn, (5,))
        result = interpret_or_derive(diamond_fn, (7,), recorded)
        ref = Interpreter().run(diamond_fn, (7,))
        assert result.return_value == ref.return_value
        assert result.steps == ref.steps

    def test_interpret_or_derive_without_recording(self, sum_fn):
        result = interpret_or_derive(sum_fn, (5,), None)
        ref = Interpreter().run(sum_fn, (5,))
        assert result.return_value == ref.return_value
        assert result.steps == ref.steps


class TestRecordingCache:
    def test_memoized_on_structure_and_args(self, sum_fn):
        clear_recorded_runs()
        first = record_reference_run(sum_fn, (5,))
        again = record_reference_run(sum_fn, (5,))
        assert again is first
        other_args = record_reference_run(sum_fn, (6,))
        assert other_args is not first
        clear_recorded_runs()
        fresh = record_reference_run(sum_fn, (5,))
        assert fresh is not first
