"""Interference-graph construction tests."""

import dataclasses

import pytest

from repro.analysis import build_interference
from repro.ir import Interpreter, parse_function, vreg
from repro.lint import LintOptions, run_lint
from repro.regalloc import AllocationError, check_allocation, iterated_allocate
from repro.regalloc.ssa_spill import ssa_spill_allocate


class TestEdges:
    def test_simultaneously_live_interfere(self):
        fn = parse_function("""
func f():
entry:
    li v1, 1
    li v2, 2
    add v3, v1, v2
    ret v3
""")
        g = build_interference(fn)
        assert g.interferes(vreg(1), vreg(2))

    def test_sequential_values_do_not_interfere(self):
        fn = parse_function("""
func f():
entry:
    li v1, 1
    addi v2, v1, 0
    addi v3, v2, 0
    ret v3
""")
        g = build_interference(fn)
        assert not g.interferes(vreg(1), vreg(3))

    def test_move_source_exempted(self):
        fn = parse_function("""
func f():
entry:
    li v1, 1
    mov v2, v1
    add v3, v2, v1
    ret v3
""")
        g = build_interference(fn)
        # v1 live after the move, but the dst/src edge is omitted so the
        # move stays coalescible
        assert not g.interferes(vreg(1), vreg(2))
        assert (vreg(1), vreg(2)) in g.moves

    def test_loop_carried_interference(self, sum_fn):
        g = build_interference(sum_fn)
        assert g.interferes(vreg(1), vreg(2))  # i and acc
        assert g.interferes(vreg(0), vreg(2))  # n and acc

    def test_move_weight_uses_frequency(self):
        fn = parse_function("""
func f(v0):
entry:
    li v1, 1
loop:
    mov v2, v1
    addi v1, v2, 1
    blt v1, v0, loop
exit:
    ret v1
""")
        g = build_interference(fn, freq={"entry": 1.0, "loop": 10.0, "exit": 1.0})
        assert g.moves[(vreg(1), vreg(2))] == 10.0


_TWO_PARAMS = """
func f(v0, v1):
entry:
    add v2, v0, v1
    ret v2
"""


class TestParametersInterfere:
    """Parameters are live on entry and defined by no instruction, so
    only the entry edges keep two of them out of one register."""

    def test_parameters_interfere(self):
        g = build_interference(parse_function(_TWO_PARAMS))
        assert g.interferes(vreg(0), vreg(1))
        assert not g.interferes(vreg(0), vreg(2))

    @pytest.mark.parametrize("allocate",
                             [iterated_allocate, ssa_spill_allocate])
    def test_allocation_keeps_parameters_apart(self, allocate):
        fn = parse_function(_TWO_PARAMS)
        res = allocate(fn, 4)
        assert res.coloring[vreg(0)] != res.coloring[vreg(1)]
        assert Interpreter().run(res.fn, (3, 4)).return_value == 7
        check_allocation(res, 4, res.colored_fn)

    def test_checkers_reject_merged_parameters(self):
        fn = parse_function(_TWO_PARAMS)
        res = iterated_allocate(fn, 4)
        merged = dict(res.coloring)
        merged[vreg(1)] = merged[vreg(0)]
        with pytest.raises(AllocationError, match="interfering"):
            check_allocation(dataclasses.replace(res, coloring=merged), 4,
                             res.colored_fn)
        diags = run_lint(res.fn, LintOptions(
            allocated=True, coloring=merged,
            original=res.colored_fn)).by_rule("L010")
        assert len(diags) == 1
        assert "share physical register" in diags[0].message


class TestGraphOps:
    def test_degree_and_neighbors(self, pressure_fn):
        g = build_interference(pressure_fn)
        vals = [r for r in g.nodes() if g.degree(r) >= 13]
        assert len(vals) >= 14  # the 14 hot values interfere mutually

    def test_merge_unions_neighbors(self):
        # v1 and v2 are move-related (coalescible, no interference)
        fn = parse_function("""
func f():
entry:
    li v3, 3
    li v1, 1
    mov v2, v1
    add v4, v2, v3
    ret v4
""")
        g = build_interference(fn)
        before = (g.neighbors(vreg(1)) | g.neighbors(vreg(2))) - {vreg(1), vreg(2)}
        g.merge(vreg(1), vreg(2))
        assert vreg(2) not in g
        assert g.neighbors(vreg(1)) == before
        assert g.moves == {}  # the v1/v2 move collapsed to a self pair

    def test_check_coloring_detects_conflict(self, sum_fn):
        g = build_interference(sum_fn)
        bad = {vreg(0): 0, vreg(1): 0, vreg(2): 1}
        assert g.check_coloring(bad) is not None
        good = {vreg(0): 0, vreg(1): 1, vreg(2): 2}
        assert g.check_coloring(good) is None

    def test_copy_independent(self, sum_fn):
        g = build_interference(sum_fn)
        before = {n: set(g.neighbors(n)) for n in g.nodes()}
        moves = dict(g.moves)
        h = g.copy()
        h.add_edge(vreg(0), vreg(9))
        h.merge(vreg(1), vreg(2))
        assert vreg(9) not in g and vreg(2) in g
        assert {n: g.neighbors(n) for n in g.nodes()} == before
        assert g.moves == moves
