"""Analysis memoization tests.

The rule under test (see :mod:`repro.analysis.cache`): a cache hit must be
indistinguishable from a recompute — across copies, after mutation, and
when callers mutate what they were handed back.
"""

import pytest

from repro.analysis import (
    analysis_cache_stats,
    build_adjacency,
    build_interference,
    clear_analysis_cache,
    compute_liveness,
    estimate_block_frequencies,
    set_analysis_cache_enabled,
)
from repro.analysis.cache import (
    fingerprint_cfg,
    fingerprint_function,
    memoize_analysis,
)
from repro.analysis.interference import _build_interference_ref
from repro.ir import parse_function
from repro.ir.instr import Reg
from repro.workloads import get_workload

from tests.conftest import make_pressure_fn


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_analysis_cache()
    yield
    clear_analysis_cache()


class TestFingerprints:
    def test_copy_shares_fingerprint(self):
        fn = make_pressure_fn()
        assert fingerprint_function(fn) == fingerprint_function(fn.copy())

    def test_mutation_changes_fingerprint(self):
        fn = make_pressure_fn()
        before = fingerprint_function(fn)
        fn.blocks[0].instrs[0].imm = 999
        assert fingerprint_function(fn) != before

    def test_cfg_fingerprint_ignores_straightline_code(self):
        fn = make_pressure_fn()
        before = fingerprint_cfg(fn)
        fn.blocks[0].instrs[0].imm = 999  # not a terminator
        assert fingerprint_cfg(fn) == before

    def test_fingerprint_is_hashable(self):
        hash(fingerprint_function(make_pressure_fn()))


class TestMemoize:
    def test_hit_returns_same_object(self):
        calls = []
        a = memoize_analysis(("k",), lambda: calls.append(1) or [1, 2])
        b = memoize_analysis(("k",), lambda: calls.append(1) or [1, 2])
        assert a is b and len(calls) == 1

    def test_stats(self):
        memoize_analysis(("s", 1), lambda: 1)
        memoize_analysis(("s", 1), lambda: 1)
        memoize_analysis(("s", 2), lambda: 2)
        stats = analysis_cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 2
        assert stats["entries"] == 2

    def test_unhashable_key_bypasses(self):
        assert memoize_analysis(("k", [1]), lambda: 42) == 42
        assert analysis_cache_stats()["entries"] == 0

    def test_disabled_recomputes(self):
        old = set_analysis_cache_enabled(False)
        try:
            calls = []
            memoize_analysis(("d",), lambda: calls.append(1))
            memoize_analysis(("d",), lambda: calls.append(1))
            assert len(calls) == 2
        finally:
            set_analysis_cache_enabled(old)

    def test_bounded(self):
        from repro.analysis import cache

        for i in range(cache._MAX_ENTRIES + 10):
            memoize_analysis(("bound", i), lambda: i)
        assert analysis_cache_stats()["entries"] == cache._MAX_ENTRIES


class TestAnalysisConsumers:
    def test_liveness_hits_on_identical_copy(self):
        fn = get_workload("crc32").function()
        a = compute_liveness(fn)
        b = compute_liveness(fn.copy())
        assert b is a  # shared, read-only by contract
        assert analysis_cache_stats()["hits"] == 1

    def test_liveness_recomputes_after_mutation(self):
        fn = get_workload("crc32").function()
        a = compute_liveness(fn)
        fn.blocks[0].instrs.pop()
        b = compute_liveness(fn)
        assert b is not a

    def test_frequency_returns_private_dict(self):
        fn = get_workload("crc32").function()
        a = estimate_block_frequencies(fn)
        a["entry"] = -1.0  # caller mutation must not poison the cache
        b = estimate_block_frequencies(fn)
        assert b["entry"] != -1.0

    def test_frequency_distinguishes_loop_factor(self):
        fn = get_workload("crc32").function()
        a = estimate_block_frequencies(fn, loop_factor=10.0)
        b = estimate_block_frequencies(fn, loop_factor=2.0)
        assert a != b

    def test_adjacency_returns_private_copy(self):
        from repro.regalloc import iterated_allocate

        fn = iterated_allocate(get_workload("crc32").function(), 12).fn
        for build in (build_adjacency, build_interference):
            a = build(fn)
            nodes = a.nodes()
            assert len(nodes) >= 2
            a.merge(nodes[0], nodes[1])  # what coalescing does
            assert nodes[1] not in a
            assert nodes[1] in build(fn)  # the cached graph was not mutated

        # IRC adds edges to the graph it is handed when it coalesces: v1
        # (which meets r3) merges into v2, so r3 gains the edge r3-v2
        kernel = parse_function("""
func f():
entry:
    li v1, 1
    li r3, 3
    add v4, v1, r3
    mov v2, v1
    li r5, 5
    add v6, v2, r5
    add v7, v6, v4
    ret v7
""")
        res = iterated_allocate(kernel, 12)
        assert res.rounds == 1 and res.stats["coalesced_moves"] == 1
        got = build_interference(kernel)
        ref = _build_interference_ref(kernel, None, None, "int")
        assert got.nodes() == ref.nodes()
        assert all(got.neighbors(n) == ref.neighbors(n) for n in ref.nodes())
        assert got.moves == ref.moves

    def test_adjacency_distinguishes_freq(self):
        from repro.regalloc import iterated_allocate

        fn = iterated_allocate(get_workload("crc32").function(), 12).fn
        unweighted = build_adjacency(fn, freq={})
        weighted = build_adjacency(fn, freq={b.name: 50.0 for b in fn.blocks})
        assert unweighted.edges() != weighted.edges()

    def test_cached_results_equal_uncached(self):
        """The A/B invariant: cache on vs cache off, same answers."""
        fn = get_workload("sha").function()
        live_cached = compute_liveness(fn)
        freq_cached = estimate_block_frequencies(fn)
        old = set_analysis_cache_enabled(False)
        try:
            live_raw = compute_liveness(fn)
            freq_raw = estimate_block_frequencies(fn)
        finally:
            set_analysis_cache_enabled(old)
        assert live_cached.live_in == live_raw.live_in
        assert live_cached.instr_live_out == live_raw.instr_live_out
        assert freq_cached == freq_raw
