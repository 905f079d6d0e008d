"""Differential coalesce tests (paper Section 7)."""

import pytest

from repro.ir import Interpreter, parse_function
from repro.regalloc import check_allocation, differential_coalesce_allocate
from repro.regalloc.diff_coalesce import coalesce_pass

from tests.conftest import make_pressure_fn


class TestCoalescePass:
    def test_removes_coalescible_moves(self):
        fn = parse_function("""
func f(v0):
entry:
    mov v1, v0
    addi v2, v1, 1
    mov v3, v2
    ret v3
""")
        out, mapping, stats = coalesce_pass(fn, 4, 4, 4)
        assert stats.committed == 2
        assert all(i.op != "mov" for i in out.instructions())
        assert Interpreter().run(out, (5,)).return_value == 6

    def test_keeps_interfering_moves(self):
        fn = parse_function("""
func f(v0):
entry:
    mov v1, v0
    addi v0, v0, 1
    add v2, v1, v0
    ret v2
""")
        out, mapping, stats = coalesce_pass(fn, 4, 4, 4)
        assert any(i.op == "mov" for i in out.instructions())
        assert Interpreter().run(out, (3,)).return_value == 7

    def test_prefers_high_gain_move(self):
        # the loop move carries frequency weight 10x the entry move
        fn = parse_function("""
func f(v0):
entry:
    li v1, 0
    mov v2, v1
loop:
    mov v3, v2
    addi v2, v3, 1
    blt v2, v0, loop
exit:
    ret v2
""")
        out, mapping, stats = coalesce_pass(fn, 4, 4, 4)
        assert stats.committed >= 1
        assert stats.move_weight_removed > 0
        assert Interpreter().run(out, (5,)).return_value == 5

    def test_alias_chains_resolved(self):
        fn = parse_function("""
func f(v0):
entry:
    mov v1, v0
    mov v2, v1
    mov v3, v2
    ret v3
""")
        out, mapping, stats = coalesce_pass(fn, 8, 8, 8)
        assert out.num_instructions() == 1  # only the ret remains
        assert Interpreter().run(out, (9,)).return_value == 9


class TestEndToEnd:
    @pytest.mark.parametrize("use_ilp", [True, False])
    def test_full_pipeline(self, pressure_fn, use_ilp):
        ref = Interpreter().run(pressure_fn, (4,)).return_value
        res = differential_coalesce_allocate(pressure_fn, 12, 8, use_ilp=use_ilp)
        check_allocation(res, 12)
        assert Interpreter().run(res.fn, (4,)).return_value == ref

    def test_stats(self, pressure_fn):
        res = differential_coalesce_allocate(pressure_fn, 12, 8)
        assert "coalesce_committed" in res.stats
        assert "ospill_objective" in res.stats

    @pytest.mark.parametrize("seed", range(3))
    def test_random_kernels(self, seed):
        fn = make_pressure_fn(nvals=12, seed=seed, name=f"dc{seed}")
        ref = Interpreter().run(fn, (4,)).return_value
        res = differential_coalesce_allocate(fn, 12, 8)
        assert Interpreter().run(res.fn, (4,)).return_value == ref
