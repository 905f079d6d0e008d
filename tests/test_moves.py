"""Parallel-move resolver tests (docs/moves.md).

The minimality claims are checked *exhaustively*: every injective
mapping over a 4-register file, with and without a scratch register,
is compared against the true optimum found by Dijkstra search over
abstract register-file states.  At ``RegN = 5`` all 120 permutations
are covered through the conjugation lemma: relabeling the registers by
any bijection maps valid op sequences to valid op sequences of the same
cost (``mov``/``swap`` relabel directly), so the optimum depends only
on the cycle type.
The suite Dijkstra-verifies one representative per cycle type and then
checks every permutation's emitted length against the closed form and
its representative's verified optimum.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import parse_function
from repro.ir.instr import Reg
from repro.regalloc.moves import (MoveRunStats, apply_ops,
                                  decompose_parallel_move, lower_ops,
                                  minimal_instruction_count, op_cost,
                                  resolve_move_runs, resolve_parallel_move,
                                  search_minimal_cost)
from repro.workloads import MIBENCH


def _scratches(reg_n):
    """No scratch, and a free one just past the mapped register file."""
    return (None, reg_n)


def _check_semantics(mapping, resolved, reg_n, scratch):
    n = reg_n + (1 if scratch is not None else 0)
    state = apply_ops(resolved.ops, {i: ("v", i) for i in range(n)})
    for i in range(reg_n):
        assert state[i] == ("v", mapping.get(i, i)), (mapping, resolved.ops)


def _injective_mappings(n):
    seen = set()
    for k in range(n + 1):
        for dsts in itertools.combinations(range(n), k):
            for srcs in itertools.permutations(range(n), k):
                m = tuple(sorted(
                    (d, s) for d, s in zip(dsts, srcs) if d != s))
                seen.add(m)
    return [dict(m) for m in sorted(seen)]


class TestExhaustiveMinimality:
    def test_all_injective_mappings_reg4(self):
        # every injective partial mapping over r0..r3, with and without a
        # scratch: emitted length == Dijkstra optimum == closed form
        for mapping in _injective_mappings(4):
            for scratch in _scratches(4):
                r = resolve_parallel_move(mapping, scratch=scratch)
                _check_semantics(mapping, r, 4, scratch)
                opt = search_minimal_cost(mapping, 4, scratch=scratch)
                assert r.n_instructions == opt, (mapping, scratch)
                assert r.n_instructions == minimal_instruction_count(
                    mapping, scratch_available=scratch is not None)

    def test_all_permutations_reg5(self):
        # group S5 by cycle type; Dijkstra-verify one representative per
        # type, then hold every permutation to the closed form and to its
        # type's verified optimum (see the module docstring's lemma)
        by_type = {}
        for perm in itertools.permutations(range(5)):
            mapping = {d: s for d, s in enumerate(perm) if d != s}
            _, cycles = decompose_parallel_move(mapping)
            key = tuple(sorted(len(c) for c in cycles))
            by_type.setdefault(key, []).append(mapping)
        assert len(by_type) == 7  # the seven cycle types of S5

        for key, mappings in by_type.items():
            for scratch in _scratches(5):
                rep = mappings[0]
                opt = search_minimal_cost(rep, 5, scratch=scratch)
                for mapping in mappings:
                    r = resolve_parallel_move(mapping, scratch=scratch)
                    _check_semantics(mapping, r, 5, scratch)
                    assert r.n_instructions == opt, (key, mapping)
                    assert r.n_instructions == minimal_instruction_count(
                        mapping, scratch_available=scratch is not None)


@st.composite
def partial_permutations(draw):
    reg_n = draw(st.integers(min_value=2, max_value=16))
    size = draw(st.integers(min_value=0, max_value=reg_n))
    dsts = sorted(draw(st.permutations(list(range(reg_n))))[:size])
    srcs = draw(st.permutations(list(range(reg_n))))[:size]
    mapping = {d: s for d, s in zip(dsts, srcs) if d != s}
    involved = set(mapping) | set(mapping.values())
    free = [r for r in range(reg_n) if r not in involved]
    scratch = free[0] if free and draw(st.booleans()) else None
    return reg_n, mapping, scratch


class TestProperties:
    @settings(max_examples=300, deadline=None)
    @given(partial_permutations())
    def test_abstract_application_reaches_target(self, case):
        reg_n, mapping, scratch = case
        r = resolve_parallel_move(mapping, scratch=scratch)
        state = apply_ops(r.ops, {i: ("v", i) for i in range(reg_n)})
        for i in range(reg_n):
            if i == scratch:
                continue
            assert state[i] == ("v", mapping.get(i, i))

    @settings(max_examples=300, deadline=None)
    @given(partial_permutations())
    def test_length_matches_cycle_structure_closed_form(self, case):
        _, mapping, scratch = case
        r = resolve_parallel_move(mapping, scratch=scratch)
        assert r.n_instructions == minimal_instruction_count(
            mapping, scratch_available=scratch is not None)
        assert r.n_instructions == sum(op_cost(op) for op in r.ops)


class TestResolverStructure:
    def test_decompose_orders_tree_safely(self):
        tree, cycles = decompose_parallel_move({1: 0, 2: 1, 3: 2})
        assert cycles == []
        # terminal first: r3 must be written before r2, r2 before r1
        assert tree == [(3, 2), (2, 1), (1, 0)]

    def test_decompose_canonical_cycles(self):
        _, cycles = decompose_parallel_move({0: 1, 1: 0, 3: 4, 4: 3})
        assert cycles == [(0, 1), (3, 4)]

    def test_cycle_without_anything_uses_xor_swaps(self):
        r = resolve_parallel_move({0: 1, 1: 2, 2: 0})
        assert r.strategy == "swap"
        assert r.n_instructions == 6  # 3 (L - 1)

    def test_cycle_with_scratch(self):
        r = resolve_parallel_move({0: 1, 1: 0}, scratch=5)
        assert r.strategy == "scratch" and r.scratch == 5
        assert r.n_instructions == 3  # L + 1

    def test_chain_terminal_serves_as_internal_scratch(self):
        # injective mapping with a chain: the terminal r3 is dead until
        # its own final write, so the cycle costs L + 1 without help
        r = resolve_parallel_move({0: 1, 1: 0, 3: 2})
        assert r.strategy == "chain"
        assert r.n_instructions == 4
        _check_semantics({0: 1, 1: 0, 3: 2}, r, 4, None)

    def test_fanout_alias_saves_the_cycle_save(self):
        # the tree copy r3 <- r0 already preserves r0's value
        mapping = {0: 1, 1: 0, 3: 0}
        r = resolve_parallel_move(mapping)
        assert r.strategy == "alias"
        assert r.n_instructions == 3  # 1 tree + L
        n = 4
        state = apply_ops(r.ops, {i: ("v", i) for i in range(n)})
        assert all(state[i] == ("v", mapping.get(i, i)) for i in range(n))

    def test_scratch_participating_is_rejected(self):
        with pytest.raises(ValueError):
            resolve_parallel_move({0: 1}, scratch=1)

    def test_negative_register_rejected(self):
        with pytest.raises(ValueError):
            resolve_parallel_move({-1: 0})

    def test_swap_lowering_is_exact_xor_triple(self):
        instrs = lower_ops([("swap", 1, 2)])
        assert [i.op for i in instrs] == ["xor", "xor", "xor"]
        assert [i.dst.id for i in instrs] == [1, 2, 1]


def _run_fn(body):
    return parse_function("func runs():\nentry:\n" + body + "    ret r0\n")


class TestResolveMoveRuns:
    def test_redundant_pair_collapses(self):
        fn = _run_fn("    li r1, 1\n    li r2, 2\n"
                     "    mov r1, r2\n    mov r2, r1\n"
                     "    add r0, r1, r2\n")
        stats = resolve_move_runs(fn, 4)
        assert stats.runs_seen == 1 and stats.runs_rewritten == 1
        assert stats.instructions_saved == 1
        movs = [i for i in fn.blocks[0].instrs if i.op == "mov"]
        assert len(movs) == 1

    def test_equal_length_run_keeps_uids(self):
        body = ("    li r1, 1\n    li r2, 2\n    li r3, 3\n"
                "    mov r4, r1\n    mov r1, r2\n"
                "    mov r2, r3\n    mov r3, r4\n"
                "    add r0, r1, r3\n")
        fn = _run_fn(body)
        before = [i.uid for i in fn.blocks[0].instrs]
        stats = resolve_move_runs(fn, 5)
        assert stats.runs_seen == 1 and stats.runs_rewritten == 0
        assert [i.uid for i in fn.blocks[0].instrs] == before

    def test_stats_dict_shape(self):
        fn = _run_fn("    li r1, 1\n    li r2, 2\n"
                     "    mov r1, r2\n    mov r2, r1\n"
                     "    add r0, r1, r2\n")
        stats = resolve_move_runs(fn, 4)
        assert stats.as_stats() == {
            "moves_runs_seen": 1.0,
            "moves_runs_rewritten": 1.0,
            "moves_instructions_saved": 1.0,
        }


class TestMibenchParity:
    @pytest.mark.parametrize("name", [w.name for w in MIBENCH[:8]])
    @pytest.mark.parametrize("setup", ["select", "coalesce"])
    def test_cyclereport_identical_or_better(self, name, setup,
                                             monkeypatch):
        """Resolver on vs off at ``bench_args`` scale; "off" stubs the
        pass out where ``run_setup`` and ``diff_coalesce`` reach it."""
        import repro.regalloc.moves as moves
        import repro.regalloc.pipeline as pipeline
        from repro.machine.lowend import simulate
        from repro.workloads import get_workload

        w = get_workload(name)
        with monkeypatch.context() as patch:
            for module in (pipeline, moves):
                patch.setattr(module, "resolve_move_runs",
                              lambda *a, **k: MoveRunStats())
            off = pipeline.run_setup(w.function(), setup, remap_restarts=3,
                                     use_ilp=False)
        on = pipeline.run_setup(w.function(), setup, remap_restarts=3,
                                use_ilp=False)

        _, rep_off = simulate(off.final_fn, w.bench_args)
        _, rep_on = simulate(on.final_fn, w.bench_args)
        assert rep_on.cycles <= rep_off.cycles
        if not on.allocation.stats.get("moves_runs_rewritten"):
            assert rep_on == rep_off  # bit-identical when nothing fired


class TestCallconvResolver:
    def test_cycle_becomes_xor_triple(self):
        from repro.regalloc.callconv import _sequence_parallel_moves

        r = [Reg(i, virtual=False) for i in range(4)]
        out = _sequence_parallel_moves([(r[0], r[1]), (r[1], r[0])])
        assert [i.op for i in out] == ["xor", "xor", "xor"]

    def test_no_self_moves_and_safe_order(self):
        from repro.regalloc.callconv import _sequence_parallel_moves

        r = [Reg(i, virtual=False) for i in range(4)]
        out = _sequence_parallel_moves(
            [(r[0], r[0]), (r[1], r[0]), (r[2], r[1])])
        assert [i.op for i in out] == ["mov", "mov"]
        # r2 <- r1 must run before r1 is overwritten
        assert [(i.dst.id, i.srcs[0].id) for i in out] == [(2, 1), (1, 0)]
