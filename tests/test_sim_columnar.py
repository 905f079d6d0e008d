"""Equivalence properties for the columnar simulation layer.

Three layers, each asserted bit-identical to a reference implementation:

* :func:`repro.machine.cache.access_hit_flags` vs a scalar
  :class:`~repro.machine.cache.Cache` replay, on random address streams
  over several geometries (associativities 1, 2, 4, 8 — covering both
  closed forms and the compressed-replay fallback, negative addresses
  included);
* the fast (pre-compiled) interpreter engine vs ``engine="reference"``,
  on random generated programs and the MIBENCH suite — return value,
  step count, dynamic opcode counts, and the fast engine's columnar
  trace expanded (:func:`to_entries`) against the reference's object
  trace;
* :meth:`LowEndTimingModel.time` on the columns vs the per-entry loop
  :func:`time_reference` on the object traces — every
  :class:`CycleReport` field.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.ir import Interpreter
from repro.ir.instr import COND_BRANCH_OPS
from repro.ir.interp import TraceEntry
from repro.ir.trace import NO_ADDR, OP_NAMES, FunctionCodec
from repro.machine import (LOWEND, Cache, CycleReport, LowEndTimingModel,
                           access_hit_flags)
from repro.workloads.mibench import MIBENCH

from tests.conftest import fuzz_programs

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


def to_entries(trace):
    """Expand a :class:`~repro.ir.trace.ColumnarTrace` to the object-trace
    form the reference interpreter engine records."""
    instrs = list(trace.source.fn.instructions())
    return [
        TraceEntry(instrs[int(si)], int(si),
                   None if int(ma) == NO_ADDR else int(ma))
        for si, ma in zip(trace.static_index, trace.mem_addr)
    ]


def time_reference(cfg, trace):
    """The per-entry timing loop over an object trace that
    :meth:`LowEndTimingModel.time` replaced: one issue cycle per entry,
    scalar I- and D-cache replays, the op's extra latency, and the
    redirect penalty after a taken branch."""
    icache = Cache(cfg.icache_size, cfg.icache_line, cfg.icache_assoc)
    dcache = Cache(cfg.dcache_size, cfg.dcache_line, cfg.dcache_assoc)
    cycles = 0
    branch_penalties = 0
    setlr = 0
    prev_index = None
    prev_was_branch = False

    for entry in trace:
        instr = entry.instr
        # redirect penalty when the previous branch was taken
        if (prev_was_branch and prev_index is not None
                and entry.static_index != prev_index + 1):
            cycles += cfg.taken_branch_penalty
            branch_penalties += 1

        cycles += 1  # issue slot
        if not icache.access(entry.static_index * cfg.instr_bytes):
            cycles += cfg.cache_miss_penalty
        cycles += cfg.extra_latency.get(instr.op, 0)
        if entry.mem_addr is not None:
            if not dcache.access(entry.mem_addr * 4):
                cycles += cfg.cache_miss_penalty
        if instr.op == "setlr":
            setlr += 1

        prev_index = entry.static_index
        prev_was_branch = instr.op in COND_BRANCH_OPS or instr.op == "br"

    return CycleReport(
        cycles=cycles,
        instructions=len(trace),
        icache_misses=icache.stats.misses,
        dcache_misses=dcache.stats.misses,
        dcache_accesses=dcache.stats.accesses,
        branch_penalties=branch_penalties,
        setlr_executed=setlr,
        config=cfg,
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
    @given(fn=fuzz_programs(), arg=st.integers(min_value=0, max_value=4))
    @settings(max_examples=40, **COMMON)
    def test_fast_matches_reference(self, fn, arg):
        fast = Interpreter(engine="fast").run(fn, (arg,))
        ref = Interpreter(engine="reference").run(fn, (arg,))
        assert fast.return_value == ref.return_value
        assert fast.steps == ref.steps
        ops = {e.instr.op for e in ref.trace}
        assert {op: fast.count(op) for op in ops} == \
               {op: ref.count(op) for op in ops}
        assert entry_fields(to_entries(fast.columnar)) \
            == entry_fields(ref.trace)

    @pytest.mark.parametrize("w", MIBENCH, ids=lambda w: w.name)
    def test_fast_matches_reference_on_mibench(self, w):
        fn = w.function()
        fast = Interpreter(engine="fast").run(fn, w.default_args)
        ref = Interpreter(engine="reference").run(fn, w.default_args)
        assert fast.return_value == ref.return_value
        assert fast.steps == ref.steps
        assert entry_fields(to_entries(fast.columnar)) \
            == entry_fields(ref.trace)

    @given(fn=fuzz_programs(), arg=st.integers(min_value=0, max_value=4))
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
        assert entry_fields(to_entries(col.columnar)) \
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
        reference = time_reference(LOWEND, ref.trace)
        assert report_fields(model.time(fast.columnar)) \
            == report_fields(reference)
        expanded = time_reference(LOWEND, to_entries(fast.columnar))
        assert report_fields(expanded) == report_fields(reference)

    @given(fn=fuzz_programs(), arg=st.integers(min_value=0, max_value=4))
    @settings(max_examples=30, **COMMON)
    def test_engines_agree_on_random_programs(self, fn, arg):
        result = Interpreter(engine="fast").run(fn, (arg,))
        model = LowEndTimingModel(LOWEND)
        reference = time_reference(LOWEND, to_entries(result.columnar))
        assert report_fields(model.time(result.columnar)) \
            == report_fields(reference)

    def test_empty_trace(self, sum_fn):
        empty = FunctionCodec(sum_fn).assemble([], [])
        assert len(empty) == 0
        model = LowEndTimingModel(LOWEND)
        assert report_fields(model.time(empty)) == (0, 0, 0, 0, 0, 0, 0)
        assert report_fields(time_reference(LOWEND, [])) \
            == (0, 0, 0, 0, 0, 0, 0)

    def test_mem_addr_sentinel_excludes_no_access(self, sum_fn):
        result = Interpreter(engine="fast").run(sum_fn, (5,))
        ct = result.columnar
        assert ct is not None
        report = LowEndTimingModel(LOWEND).time(ct)
        n_data = sum(1 for m in ct.mem_addr.tolist() if m != NO_ADDR)
        assert report.dcache_accesses == n_data
