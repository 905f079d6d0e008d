"""Equivalence properties for the columnar simulation layer.

Three layers, each with a reference implementation kept in-tree, each
asserted bit-identical to its fast counterpart:

* :func:`repro.machine.cache.access_hit_flags` vs a scalar
  :class:`~repro.machine.cache.Cache` replay, on random address streams
  over several geometries (associativities 1, 2, 4, 8 — covering both
  closed forms and the compressed-replay fallback, negative addresses
  included);
* the fast (pre-compiled) interpreter engine vs ``engine="reference"``,
  on random generated programs and the MIBENCH suite — return value,
  step count, dynamic opcode counts, and the fast engine's columnar
  trace expanded against the reference's object trace;
* :meth:`LowEndTimingModel.time` on the columns vs the per-entry
  ``_time_reference`` on the object traces — every :class:`CycleReport`
  field.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.ir import Interpreter
from repro.ir.trace import NO_ADDR, OP_NAMES, FunctionCodec
from repro.machine import LOWEND, Cache, LowEndTimingModel, access_hit_flags
from repro.workloads import generate_function
from repro.workloads.mibench import MIBENCH

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: (size, line_size, assoc) — assoc 1 and 2 have closed vector forms,
#: 4 and 8 exercise the compressed per-set replay
GEOMETRIES = [
    (256, 16, 1),
    (512, 32, 2),
    (8192, 32, 2),
    (1024, 32, 4),
    (2048, 64, 8),
]


def report_fields(report):
    """Every CycleReport field except the shared config object."""
    return (report.cycles, report.instructions, report.icache_misses,
            report.dcache_misses, report.dcache_accesses,
            report.branch_penalties, report.setlr_executed)


def entry_fields(entries):
    return [(e.static_index, e.instr.op, e.mem_addr) for e in entries]


def synth_programs():
    return st.builds(
        generate_function,
        seed=st.integers(min_value=0, max_value=10_000),
        n_regions=st.integers(min_value=1, max_value=5),
        base_values=st.integers(min_value=3, max_value=12),
        with_memory=st.booleans(),
    )


class TestCacheBatchEquivalence:
    @given(data=st.data())
    @settings(max_examples=120, **COMMON)
    def test_batch_flags_match_scalar_replay(self, data):
        size, line, assoc = data.draw(st.sampled_from(GEOMETRIES))
        # a narrow address range forces set conflicts and re-references;
        # negatives exercise the floor-division tag/index arithmetic
        addrs = data.draw(st.lists(
            st.integers(min_value=-4096, max_value=4096), max_size=300
        ))
        cache = Cache(size, line, assoc)
        expected = [cache.access(a) for a in addrs]
        flags = access_hit_flags(np.asarray(addrs, dtype=np.int64),
                                 size, line, assoc)
        assert flags.tolist() == expected

    @given(data=st.data())
    @settings(max_examples=60, **COMMON)
    def test_batch_flags_match_on_wide_addresses(self, data):
        size, line, assoc = data.draw(st.sampled_from(GEOMETRIES))
        addrs = data.draw(st.lists(
            st.integers(min_value=-(1 << 26), max_value=1 << 26), max_size=200
        ))
        cache = Cache(size, line, assoc)
        expected = [cache.access(a) for a in addrs]
        flags = access_hit_flags(np.asarray(addrs, dtype=np.int64),
                                 size, line, assoc)
        assert flags.tolist() == expected


class TestInterpreterEngineEquivalence:
    @given(fn=synth_programs(), arg=st.integers(min_value=0, max_value=4))
    @settings(max_examples=40, **COMMON)
    def test_fast_matches_reference(self, fn, arg):
        fast = Interpreter(engine="fast").run(fn, (arg,))
        ref = Interpreter(engine="reference").run(fn, (arg,))
        assert fast.return_value == ref.return_value
        assert fast.steps == ref.steps
        ops = {e.instr.op for e in ref.trace}
        assert {op: fast.count(op) for op in ops} == \
               {op: ref.count(op) for op in ops}
        assert entry_fields(fast.columnar.to_entries()) \
            == entry_fields(ref.trace)

    @pytest.mark.parametrize("w", MIBENCH, ids=lambda w: w.name)
    def test_fast_matches_reference_on_mibench(self, w):
        fn = w.function()
        fast = Interpreter(engine="fast").run(fn, w.default_args)
        ref = Interpreter(engine="reference").run(fn, w.default_args)
        assert fast.return_value == ref.return_value
        assert fast.steps == ref.steps
        assert entry_fields(fast.columnar.to_entries()) \
            == entry_fields(ref.trace)

    @given(fn=synth_programs(), arg=st.integers(min_value=0, max_value=4))
    @settings(max_examples=25, **COMMON)
    def test_count_without_trace_recording(self, fn, arg):
        recorded = Interpreter(engine="fast").run(fn, (arg,))
        bare = Interpreter(record_trace=False, engine="fast").run(fn, (arg,))
        assert bare.trace == []
        assert bare.columnar is None
        assert bare.return_value == recorded.return_value
        assert bare.steps == recorded.steps
        ops = recorded.columnar.counts()
        assert {op: bare.count(op) for op in ops} == \
               {op: recorded.count(op) for op in ops}
        assert bare.block_instr_counts == recorded.block_instr_counts

    def test_columnar_format_matches_objects(self, sum_fn):
        """The fast engine records columns only; the reference engine
        records objects only; they describe the same stream."""
        col = Interpreter(engine="fast").run(sum_fn, (9,))
        obj = Interpreter(engine="reference").run(sum_fn, (9,))
        assert col.trace == []
        assert obj.columnar is None
        assert len(col.columnar) == col.steps == obj.steps
        assert entry_fields(col.columnar.to_entries()) \
            == entry_fields(obj.trace)

    def test_columnar_counts_match_trace(self, sum_fn):
        res = Interpreter(engine="fast").run(sum_fn, (9,))
        counts = res.columnar.counts()
        assert sum(counts.values()) == res.steps
        for op, c in counts.items():
            assert op in OP_NAMES
            assert res.count(op) == c


class TestTimingEngineEquivalence:
    @pytest.mark.parametrize("w", MIBENCH, ids=lambda w: w.name)
    def test_three_engines_agree_on_mibench(self, w):
        """The reference engine's object trace through the reference
        timing loop, against the fast engine's columns through ``time``
        and through the reference loop after expansion."""
        fn = w.function()
        ref = Interpreter(engine="reference").run(fn, w.default_args)
        fast = Interpreter(engine="fast").run(fn, w.default_args)
        model = LowEndTimingModel(LOWEND)
        reference = model._time_reference(ref.trace)
        assert report_fields(model.time(fast.columnar)) \
            == report_fields(reference)
        expanded = model._time_reference(fast.columnar.to_entries())
        assert report_fields(expanded) == report_fields(reference)

    @given(fn=synth_programs(), arg=st.integers(min_value=0, max_value=4))
    @settings(max_examples=30, **COMMON)
    def test_engines_agree_on_random_programs(self, fn, arg):
        result = Interpreter(engine="fast").run(fn, (arg,))
        model = LowEndTimingModel(LOWEND)
        reference = model._time_reference(result.columnar.to_entries())
        assert report_fields(model.time(result.columnar)) \
            == report_fields(reference)

    def test_empty_trace(self, sum_fn):
        empty = FunctionCodec(sum_fn).assemble([], [])
        assert len(empty) == 0
        model = LowEndTimingModel(LOWEND)
        assert report_fields(model.time(empty)) == (0, 0, 0, 0, 0, 0, 0)
        assert report_fields(model._time_reference([])) \
            == (0, 0, 0, 0, 0, 0, 0)

    def test_mem_addr_sentinel_excludes_no_access(self, sum_fn):
        result = Interpreter(engine="fast").run(sum_fn, (5,))
        ct = result.columnar
        assert ct is not None
        report = LowEndTimingModel(LOWEND).time(ct)
        n_data = sum(1 for m in ct.mem_addr.tolist() if m != NO_ADDR)
        assert report.dcache_accesses == n_data
