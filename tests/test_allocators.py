"""Linear-scan and iterated-register-coalescing allocator tests."""

import pytest

from repro.analysis import build_interference
from repro.ir import Interpreter, parse_function, vreg
from repro.regalloc import (
    AllocationError,
    check_allocation,
    iterated_allocate,
    linear_scan_allocate,
    spill_cost_estimates,
)
from repro.regalloc.iterated import ColorSelector

from tests.conftest import make_pressure_fn

ALLOCATORS = [linear_scan_allocate, iterated_allocate]


@pytest.mark.parametrize("allocate", ALLOCATORS)
class TestBothAllocators:
    def test_no_spills_with_enough_registers(self, sum_fn, allocate):
        res = allocate(sum_fn, 4)
        assert res.n_spill_instructions == 0
        assert res.rounds == 1

    def test_semantics_preserved(self, sum_fn, allocate):
        res = allocate(sum_fn, 3)
        assert Interpreter().run(res.fn, (10,)).return_value == 45

    def test_all_registers_physical_and_bounded(self, pressure_fn, allocate):
        res = allocate(pressure_fn, 8)
        check_allocation(res, 8)

    def test_spills_appear_under_pressure(self, pressure_fn, allocate):
        res = allocate(pressure_fn, 6)
        assert res.n_spill_instructions > 0
        ref = Interpreter().run(pressure_fn, (4,)).return_value
        assert Interpreter().run(res.fn, (4,)).return_value == ref

    def test_fewer_registers_more_spills(self, pressure_fn, allocate):
        spills = [
            allocate(pressure_fn, k).n_spill_instructions for k in (6, 8, 12, 16)
        ]
        assert spills[0] >= spills[1] >= spills[2] >= spills[3]
        assert spills[-1] == 0

    def test_invalid_k(self, sum_fn, allocate):
        with pytest.raises(ValueError):
            allocate(sum_fn, 0)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_kernels(self, allocate, seed):
        fn = make_pressure_fn(nvals=10, seed=seed, name=f"k{seed}")
        ref = Interpreter().run(fn, (5,)).return_value
        res = allocate(fn, 7)
        assert Interpreter().run(res.fn, (5,)).return_value == ref
        check_allocation(res, 7)


class TestIRCSpecifics:
    def test_moves_coalesced(self):
        fn = parse_function("""
func f(v0):
entry:
    mov v1, v0
    addi v2, v1, 1
    mov v3, v2
    ret v3
""")
        res = iterated_allocate(fn, 4)
        assert res.moves_removed == 2
        assert all(i.op != "mov" for i in res.fn.instructions())
        assert Interpreter().run(res.fn, (5,)).return_value == 6

    def test_interfering_move_not_coalesced(self):
        fn = parse_function("""
func f(v0):
entry:
    mov v1, v0
    addi v0, v0, 1
    add v2, v1, v0
    ret v2
""")
        res = iterated_allocate(fn, 4)
        assert Interpreter().run(res.fn, (10,)).return_value == 21

    def test_selector_receives_callbacks(self, sum_fn):
        events = []

        class Spy(ColorSelector):
            def begin_round(self, fn, members, freq=None):
                events.append("begin")

            def on_color(self, members, color):
                events.append(("color", color))

        iterated_allocate(sum_fn, 4, selector=Spy())
        assert "begin" in events
        assert any(isinstance(e, tuple) for e in events)

    def test_selector_illegal_color_rejected(self, sum_fn):
        class Bad(ColorSelector):
            def choose(self, node, members, ok_colors):
                return 999

        with pytest.raises(AllocationError, match="illegal color"):
            iterated_allocate(sum_fn, 4, selector=Bad())

    def test_coloring_proper_on_interference_graph(self, pressure_fn):
        res = iterated_allocate(pressure_fn, 16)  # no spills at 16
        g = build_interference(pressure_fn)
        for a in g.nodes():
            for b in g.neighbors(a):
                assert res.coloring[a] != res.coloring[b]

    def test_explicit_frequency_accepted(self, sum_fn):
        res = iterated_allocate(sum_fn, 3, freq={"entry": 1.0, "loop": 99.0,
                                                 "exit": 1.0})
        assert Interpreter().run(res.fn, (6,)).return_value == 15


class TestSpillCosts:
    def test_loop_values_cost_more(self, sum_fn):
        costs = spill_cost_estimates(sum_fn)
        assert costs[vreg(2)] > costs[vreg(0)] / 2  # acc touched in hot loop

    def test_costs_respect_given_frequency(self, sum_fn):
        flat = spill_cost_estimates(sum_fn, freq={})
        weighted = spill_cost_estimates(sum_fn, freq={"loop": 100.0})
        assert weighted[vreg(2)] > flat[vreg(2)]
