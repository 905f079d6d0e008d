"""SSA construction/destruction tests (:mod:`repro.analysis.ssa`).

The contract the ``ssa_spill`` setup leans on:
construction produces strict, pruned SSA (every value has exactly one
definition; phis only where the variable is live), and the round trip
``destruct_ssa(construct_ssa(fn))`` is observationally the identity.
"""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.analysis import compute_liveness, construct_ssa, destruct_ssa
from repro.analysis.dominators import (dominance_frontiers, dominator_tree,
                                       immediate_dominators)
from repro.ir import Interpreter, parse_function
from repro.ir.printer import format_function

from tests.conftest import fuzz_programs, make_pressure_fn

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

PROBE_ARGS = ((0,), (2,), (5,))


def _defs_count(ssa):
    """Map each register to how many times it is defined (instrs + phis)."""
    counts = {}
    for instr in ssa.fn.instructions():
        for d in list(instr.defs()):
            counts[d] = counts.get(d, 0) + 1
    for phis in ssa.phis.values():
        for phi in phis:
            counts[phi.dst] = counts.get(phi.dst, 0) + 1
    return counts


def _run(fn, args):
    return Interpreter(max_steps=500_000).run(fn, args).return_value


class TestDominatorInfrastructure:
    def test_idom_of_loop_body(self, sum_fn):
        idom = immediate_dominators(sum_fn)
        assert idom["loop"] == "entry"
        assert idom["exit"] == "loop"

    def test_diamond_frontiers(self, diamond_fn):
        df = dominance_frontiers(diamond_fn)
        assert df["big"] == {"join"}
        assert df["small"] == {"join"}
        assert df["join"] == set()

    def test_tree_children_partition(self, diamond_fn):
        tree = dominator_tree(diamond_fn)
        children = [c for kids in tree.values() for c in kids]
        assert sorted(children) == sorted(
            b.name for b in diamond_fn.blocks if b.name != "entry")

    def test_loop_header_frontier_contains_itself(self, sum_fn):
        # the back edge makes the loop header its own frontier member
        assert "loop" in dominance_frontiers(sum_fn)["loop"]


class TestConstruction:
    def test_strict_single_definition(self, pressure_fn):
        ssa = construct_ssa(pressure_fn)
        for reg, n in _defs_count(ssa).items():
            assert n == 1, f"{reg} defined {n} times"

    def test_loop_variable_gets_phi(self, sum_fn):
        ssa = construct_ssa(sum_fn)
        assert ssa.n_phis >= 2  # i and acc both join at the loop header
        assert set(ssa.phis) == {"loop"}

    def test_phi_args_cover_predecessors(self, sum_fn):
        ssa = construct_ssa(sum_fn)
        preds = {"entry", "loop"}
        for phi in ssa.phis["loop"]:
            assert {p for p, _ in phi.args} == preds

    def test_pruned_no_dead_phis(self, diamond_fn):
        ssa = construct_ssa(diamond_fn)
        uses = {r for instr in ssa.fn.instructions()
                for r in instr.uses()}
        phi_uses = {r for ps in ssa.phis.values()
                    for p in ps for _, r in p.args}
        for phis in ssa.phis.values():
            for phi in phis:
                assert phi.dst in uses | phi_uses

    def test_params_survive(self, sum_fn):
        ssa = construct_ssa(sum_fn)
        assert len(ssa.fn.params) == len(sum_fn.params)

    def test_original_untouched(self, sum_fn):
        before = format_function(sum_fn)
        construct_ssa(sum_fn)
        assert format_function(sum_fn) == before

    def test_deterministic(self, pressure_fn):
        a = construct_ssa(pressure_fn)
        b = construct_ssa(pressure_fn)
        assert format_function(a.fn) == format_function(b.fn)
        assert a.phis == b.phis

    def test_entry_loop_header_normalized(self):
        # branching back to the entry block: the implicit external edge
        # makes entry a join point, which needs a preheader
        fn = parse_function("""
func countdown(v0):
entry:
    li v1, 0
    subi v0, v0, 1
    blt v1, v0, entry
exit:
    ret v0
""")
        ssa = construct_ssa(fn)
        assert ssa.fn.blocks[0].name != "entry"
        for args in PROBE_ARGS:
            assert _run(destruct_ssa(ssa), args) == _run(fn, args)


class TestDestruction:
    def test_round_trip_loop(self, sum_fn):
        out = destruct_ssa(construct_ssa(sum_fn))
        out.validate()
        for args in PROBE_ARGS:
            assert _run(out, args) == _run(sum_fn, args)

    def test_round_trip_diamond(self, diamond_fn):
        out = destruct_ssa(construct_ssa(diamond_fn))
        for args in PROBE_ARGS:
            assert _run(out, args) == _run(diamond_fn, args)

    def test_round_trip_pressure(self):
        fn = make_pressure_fn(seed=3)
        out = destruct_ssa(construct_ssa(fn))
        assert _run(out, (4,)) == _run(fn, (4,))

    def test_critical_edges_split(self, sum_fn):
        # the loop->loop back edge is critical (loop has two successors,
        # loop has two predecessors); copies must not ride the exit path
        out = destruct_ssa(construct_ssa(sum_fn))
        assert len(out.blocks) > len(sum_fn.blocks)

    @given(fn=fuzz_programs(calls=True))
    @settings(max_examples=60, **COMMON)
    def test_round_trip_preserves_semantics(self, fn):
        out = destruct_ssa(construct_ssa(fn))
        out.validate()
        for args in PROBE_ARGS:
            assert _run(out, args) == _run(fn, args)
