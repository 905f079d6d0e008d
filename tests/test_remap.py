"""Differential remapping tests (paper Section 5)."""

import pytest

from repro.analysis import build_adjacency
from repro.ir import Interpreter, parse_function
from repro.regalloc import differential_remap, iterated_allocate
from repro.regalloc.remap import apply_permutation, _perm_cost

from tests.conftest import make_pressure_fn
from tests.test_remap_exact import exhaustive_remap


def allocated_kernel(k=12, seed=1):
    fn = make_pressure_fn(seed=seed)
    return fn, iterated_allocate(fn, k).fn


class TestGreedyRemap:
    def test_cost_never_increases(self):
        _, alloc = allocated_kernel()
        r = differential_remap(alloc, 12, 8, restarts=10)
        assert r.cost_after <= r.cost_before

    def test_permutation_is_bijective(self):
        _, alloc = allocated_kernel()
        r = differential_remap(alloc, 12, 8, restarts=5)
        assert sorted(r.permutation) == list(range(12))

    def test_semantics_preserved(self):
        fn, alloc = allocated_kernel()
        ref = Interpreter().run(fn, (4,)).return_value
        r = differential_remap(alloc, 12, 8, restarts=10)
        assert Interpreter().run(r.fn, (4,)).return_value == ref

    def test_deterministic_given_seed(self):
        _, alloc = allocated_kernel()
        a = differential_remap(alloc, 12, 8, restarts=8, seed=3)
        b = differential_remap(alloc, 12, 8, restarts=8, seed=3)
        assert a.permutation == b.permutation

    def test_more_restarts_never_worse(self):
        _, alloc = allocated_kernel(seed=2)
        one = differential_remap(alloc, 12, 8, restarts=1)
        many = differential_remap(alloc, 12, 8, restarts=40)
        assert many.cost_after <= one.cost_after

    def test_pinned_registers_fixed(self):
        _, alloc = allocated_kernel()
        r = differential_remap(alloc, 12, 8, restarts=5, pinned=(0, 1))
        assert r.permutation[0] == 0 and r.permutation[1] == 1

    def test_rejects_virtual_code(self, sum_fn):
        with pytest.raises(ValueError, match="physical"):
            differential_remap(sum_fn, 8, 4)


class TestExhaustiveRemap:
    def test_beats_or_matches_greedy_on_small_space(self):
        fn = parse_function("""
func f():
entry:
    add r1, r0, r2
    add r3, r2, r0
    add r1, r3, r1
    ret r1
""")
        ex = exhaustive_remap(fn, 4, 2)
        gr = differential_remap(fn, 4, 2, restarts=50)
        assert ex.cost_after <= gr.cost_after

    def test_identity_when_already_optimal(self):
        fn = parse_function("""
func f():
entry:
    add r1, r0, r1
    ret r1
""")
        ex = exhaustive_remap(fn, 4, 2)
        assert ex.cost_after == 0.0


class TestApplyPermutation:
    def test_only_differential_space_renamed(self):
        fn = parse_function("""
func f():
entry:
    ld r1, [r15+0]
    addi r2, r1, 1
    ret r2
""")
        out = apply_permutation(fn, [3, 2, 1, 0] + list(range(4, 15)), 15)
        regs = {r.id for r in out.registers()}
        assert 15 in regs        # special register untouched
        assert 2 in regs         # r1 -> r2

    def test_perm_cost_matches_adjacency_cost(self):
        fn = parse_function("""
func f():
entry:
    add r1, r0, r2
    add r0, r2, r1
    ret r0
""")
        g = build_adjacency(fn)
        identity = list(range(4))
        direct = g.cost({r: r.id for r in g.nodes()}, 4, 2)
        edges = [(u.id, v.id, w) for u, v, w in g.edges()]
        assert _perm_cost(identity, edges, 4, 2) == direct
