"""Differential select tests (paper Section 6)."""

import pytest

from repro.analysis import build_adjacency
from repro.encoding import EncodingConfig, encode_function, verify_encoding
from repro.ir import Interpreter
from repro.regalloc import DifferentialSelector, iterated_allocate

from tests.conftest import make_pressure_fn


def static_adjacency_cost(fn, reg_n, diff_n):
    g = build_adjacency(fn)
    return g.cost({r: r.id for r in g.nodes() if not r.virtual}, reg_n, diff_n)


class TestSelector:
    def test_reduces_cost_vs_default(self):
        fn = make_pressure_fn(seed=5)
        base = iterated_allocate(fn, 12)
        sel = iterated_allocate(fn, 12, selector=DifferentialSelector(12, 8))
        assert (static_adjacency_cost(sel.fn, 12, 8)
                <= static_adjacency_cost(base.fn, 12, 8))

    def test_semantics_preserved(self):
        fn = make_pressure_fn(seed=6)
        ref = Interpreter().run(fn, (4,)).return_value
        sel = iterated_allocate(fn, 12, selector=DifferentialSelector(12, 8))
        assert Interpreter().run(sel.fn, (4,)).return_value == ref

    def test_encodes_and_verifies(self):
        fn = make_pressure_fn(seed=7)
        sel = iterated_allocate(fn, 12, selector=DifferentialSelector(12, 8))
        enc = encode_function(sel.fn, EncodingConfig(reg_n=12, diff_n=8))
        verify_encoding(enc)

    def test_reduces_encoder_setlr_count(self):
        reductions = 0
        for seed in range(4):
            fn = make_pressure_fn(seed=seed)
            cfg = EncodingConfig(reg_n=12, diff_n=8)
            base = encode_function(iterated_allocate(fn, 12).fn, cfg).n_setlr
            sel = encode_function(
                iterated_allocate(
                    fn, 12, selector=DifferentialSelector(12, 8)
                ).fn, cfg
            ).n_setlr
            if sel < base:
                reductions += 1
            assert sel <= base * 1.5  # never catastrophically worse
        assert reductions >= 2  # usually a clear win

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            DifferentialSelector(8, 12)

    def test_spill_behaviour_unchanged(self):
        # select only chooses among *legal* colors: spill counts match the
        # default allocator's on the same function and k
        fn = make_pressure_fn(seed=8)
        base = iterated_allocate(fn, 8)
        sel = iterated_allocate(fn, 8, selector=DifferentialSelector(12, 8))
        assert sel.n_spill_instructions == base.n_spill_instructions
