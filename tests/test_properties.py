"""Property-based tests (hypothesis) on the core invariants.

The big ones:

* differential encode/decode is the identity on any access sequence;
* every allocator preserves program semantics on arbitrary generated
  programs, at any register count that can possibly work;
* every differential encoding the encoder emits passes full decode-replay
  verification, under any parameter combination and repair policy;
* remapping preserves both allocation validity and semantics.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tests.conftest import fuzz_programs, synth_programs
from repro.analysis import build_interference
from repro.encoding import (
    EncodingConfig,
    decode_sequence,
    encode_function,
    encode_sequence,
    verify_encoding,
)
from repro.ir import Interpreter, Reg
from repro.regalloc import (
    differential_remap,
    iterated_allocate,
    optimal_spill_allocate,
)
from repro.regalloc.checker import check_allocation_semantics
from repro.regalloc.diff_select import DifferentialSelector

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestDifferentialArithmetic:
    @given(
        st.data(),
        st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=200, **COMMON)
    def test_encode_decode_roundtrip(self, data, reg_n):
        regs = data.draw(st.lists(
            st.integers(min_value=0, max_value=reg_n - 1), max_size=40
        ))
        initial = data.draw(st.integers(min_value=0, max_value=reg_n - 1))
        diffs = encode_sequence(regs, reg_n, initial)
        assert all(0 <= d < reg_n for d in diffs)
        assert decode_sequence(diffs, reg_n, initial) == regs


class TestAllocatorSemantics:
    @given(fn=synth_programs(), k=st.integers(min_value=5, max_value=16),
           arg=st.integers(min_value=0, max_value=4))
    @settings(max_examples=40, **COMMON)
    def test_iterated_preserves_semantics(self, fn, k, arg):
        ref = Interpreter().run(fn, (arg,)).return_value
        res = iterated_allocate(fn, k)
        assert Interpreter().run(res.fn, (arg,)).return_value == ref
        assert all(not r.virtual for r in res.fn.registers())
        assert all(r.id < k for r in res.fn.registers())

    @given(fn=synth_programs(), arg=st.integers(min_value=0, max_value=3))
    @settings(max_examples=12, **COMMON)
    def test_optimal_spill_preserves_semantics(self, fn, arg):
        ref = Interpreter().run(fn, (arg,)).return_value
        res = optimal_spill_allocate(fn, 8)
        assert Interpreter().run(res.fn, (arg,)).return_value == ref

    @given(fn=synth_programs(), k=st.integers(min_value=5, max_value=16),
           arg=st.integers(min_value=0, max_value=4))
    @settings(max_examples=25, **COMMON)
    def test_linear_scan_preserves_semantics(self, fn, k, arg):
        from repro.regalloc import linear_scan_allocate

        ref = Interpreter().run(fn, (arg,)).return_value
        res = linear_scan_allocate(fn, k)
        assert Interpreter().run(res.fn, (arg,)).return_value == ref
        assert all(r.id < k for r in res.fn.registers())


class TestEncodingSoundness:
    @given(
        fn=synth_programs(),
        diff_n=st.integers(min_value=2, max_value=12),
        policy=st.sampled_from(["block_entry", "pred_end"]),
        order=st.sampled_from(["src_first", "dst_first"]),
        arg=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=40, **COMMON)
    def test_any_encoding_verifies_and_runs(self, fn, diff_n, policy, order, arg):
        reg_n = 12
        ref = Interpreter().run(fn, (arg,)).return_value
        res = iterated_allocate(fn, reg_n)
        cfg = EncodingConfig(reg_n=reg_n, diff_n=min(diff_n, reg_n),
                             join_repair=policy, access_order=order)
        enc = encode_function(res.fn, cfg)
        verify_encoding(enc)
        assert Interpreter().run(enc.fn, (arg,)).return_value == ref

    @given(fn=synth_programs(), seed=st.integers(min_value=0, max_value=99))
    @settings(max_examples=15, **COMMON)
    def test_remap_preserves_validity_and_semantics(self, fn, seed):
        ref = Interpreter().run(fn, (2,)).return_value
        res = iterated_allocate(fn, 12)
        remapped = differential_remap(res.fn, 12, 8, restarts=3, seed=seed)
        assert sorted(remapped.permutation) == list(range(12))
        assert Interpreter().run(remapped.fn, (2,)).return_value == ref

    @given(fn=synth_programs(), arg=st.integers(min_value=0, max_value=3))
    @settings(max_examples=20, **COMMON)
    def test_printer_parser_roundtrip(self, fn, arg):
        from repro.ir import format_function, parse_function

        text = format_function(fn)
        reparsed = parse_function(text)
        assert format_function(reparsed) == text
        assert (Interpreter().run(reparsed, (arg,)).return_value
                == Interpreter().run(fn, (arg,)).return_value)

    @given(fn=synth_programs(),
           diff_n=st.integers(min_value=3, max_value=12),
           order=st.sampled_from(["src_first", "dst_first"]))
    @settings(max_examples=20, **COMMON)
    def test_binary_roundtrip_property(self, fn, diff_n, order):
        from repro.encoding import pack_function, unpack_function
        from repro.ir import format_function

        allocated = iterated_allocate(fn, 12).fn
        cfg = EncodingConfig(reg_n=12, diff_n=diff_n, access_order=order)
        enc = encode_function(allocated, cfg)
        packed = pack_function(enc)
        assert format_function(unpack_function(packed)) \
            == format_function(allocated)

    @given(fn=fuzz_programs(calls=True),
           k=st.integers(min_value=6, max_value=16),
           arg=st.integers(min_value=0, max_value=4))
    @settings(max_examples=25, **COMMON)
    def test_fuzz_programs_allocate_and_check(self, fn, k, arg):
        """The fuzz generator's full knob space (calls included) is legal
        allocator input, and every allocation passes the symbolic
        checker as well as the interpreter."""
        ref = Interpreter().run(fn, (arg,)).return_value
        res = iterated_allocate(fn, k)
        assert Interpreter().run(res.fn, (arg,)).return_value == ref
        assert check_allocation_semantics(fn, res.fn).ok

    @given(fn=synth_programs())
    @settings(max_examples=15, **COMMON)
    def test_select_coloring_is_proper(self, fn):
        res = iterated_allocate(fn, 12, selector=DifferentialSelector(12, 8))
        g = build_interference(fn)
        # spilled registers live in memory: their residual (rewritten) live
        # ranges no longer match the original graph, so they are exempt
        for a in g.nodes():
            ca = res.coloring.get(a)
            if ca is None or a in res.spilled:
                continue
            for b in g.neighbors(a):
                cb = res.coloring.get(b)
                if cb is not None and b not in res.spilled:
                    assert ca != cb
