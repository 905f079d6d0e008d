"""Parallel-move resolver tests (docs/moves.md).

The minimality claims are checked *exhaustively*: every injective
mapping over a 4-register file, across every scratch/permi
configuration, is compared against the true optimum found by Dijkstra
search over abstract register-file states.  At ``RegN = 5`` all 120
permutations are covered through the conjugation lemma: relabeling the
registers by any bijection maps valid op sequences to valid op
sequences of the same cost (``mov``/``swap`` relabel directly, and the
``permi`` repertoire is the full symmetric group, which is closed
under conjugation), so the optimum depends only on the cycle type.
The suite Dijkstra-verifies one representative per cycle type and then
checks every permutation's emitted length against the closed form and
its representative's verified optimum.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import Interpreter, format_function, parse_function
from repro.ir.instr import Reg
from repro.ir.printer import format_instr
from repro.regalloc.moves import (MoveRunStats, apply_ops,
                                  decompose_parallel_move, lower_ops,
                                  minimal_instruction_count, op_cost,
                                  resolve_move_runs, resolve_parallel_move,
                                  search_minimal_cost)
from repro.workloads import MIBENCH

# every (scratch, has_permi) machine environment the resolver supports;
# the scratch register sits just past the permutation's register window
CONFIGS = ((None, False), ("free", False), (None, True), ("free", True))


def _configs(reg_n):
    for scratch, permi in CONFIGS:
        yield (reg_n if scratch == "free" else None), permi


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
        # every injective partial mapping over r0..r3, every machine
        # environment: emitted length == Dijkstra optimum == closed form
        for mapping in _injective_mappings(4):
            for scratch, permi in _configs(4):
                r = resolve_parallel_move(mapping, scratch=scratch,
                                          has_permi=permi, reg_n=4)
                _check_semantics(mapping, r, 4, scratch)
                opt = search_minimal_cost(mapping, 4, scratch=scratch,
                                          has_permi=permi)
                assert r.n_instructions == opt, (mapping, scratch, permi)
                assert r.n_instructions == minimal_instruction_count(
                    mapping, scratch_available=scratch is not None,
                    has_permi=permi)

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
            for scratch, permi in _configs(5):
                rep = mappings[0]
                opt = search_minimal_cost(rep, 5, scratch=scratch,
                                          has_permi=permi)
                for mapping in mappings:
                    r = resolve_parallel_move(mapping, scratch=scratch,
                                              has_permi=permi, reg_n=5)
                    _check_semantics(mapping, r, 5, scratch)
                    assert r.n_instructions == opt, (key, mapping)
                    assert r.n_instructions == minimal_instruction_count(
                        mapping, scratch_available=scratch is not None,
                        has_permi=permi)


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
    return reg_n, mapping, scratch, draw(st.booleans())


class TestProperties:
    @settings(max_examples=300, deadline=None)
    @given(partial_permutations())
    def test_abstract_application_reaches_target(self, case):
        reg_n, mapping, scratch, permi = case
        r = resolve_parallel_move(mapping, scratch=scratch,
                                  has_permi=permi, reg_n=reg_n)
        state = apply_ops(r.ops, {i: ("v", i) for i in range(reg_n)})
        for i in range(reg_n):
            if i == scratch:
                continue
            assert state[i] == ("v", mapping.get(i, i))

    @settings(max_examples=300, deadline=None)
    @given(partial_permutations())
    def test_length_matches_cycle_structure_closed_form(self, case):
        reg_n, mapping, scratch, permi = case
        r = resolve_parallel_move(mapping, scratch=scratch,
                                  has_permi=permi, reg_n=reg_n)
        assert r.n_instructions == minimal_instruction_count(
            mapping, scratch_available=scratch is not None, has_permi=permi)
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

    def test_chain_folds_into_permi_with_one_repair(self):
        # d1<-d2<-d3<-tail: 3 movs plain, but C+1 = 2 with the machine flag
        r = resolve_parallel_move({0: 1, 1: 2, 2: 3}, has_permi=True,
                                  reg_n=4)
        assert r.used_permi and r.strategy == "permi"
        assert [op[0] for op in r.ops] == ["permi", "mov"]
        assert r.n_instructions == 2

    def test_tie_prefers_plain_moves(self):
        # one length-2 chain: permi + repair also costs 2; stay boring
        r = resolve_parallel_move({0: 1, 1: 2}, has_permi=True, reg_n=4)
        assert not r.used_permi
        assert [op[0] for op in r.ops] == ["mov", "mov"]

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

    def test_permi_needs_reg_n(self):
        with pytest.raises(ValueError):
            resolve_parallel_move({0: 1, 1: 0}, has_permi=True)

    def test_negative_register_rejected(self):
        with pytest.raises(ValueError):
            resolve_parallel_move({-1: 0})

    def test_swap_lowering_is_exact_xor_triple(self):
        instrs = lower_ops([("swap", 1, 2)])
        assert [i.op for i in instrs] == ["xor", "xor", "xor"]
        assert [i.dst.id for i in instrs] == [1, 2, 1]


def _permi_function(reg_n, perm):
    lines = [f"    li r{i}, {101 + i}" for i in range(reg_n)]
    lines += [f"    {format_instr(ins)}"
              for ins in lower_ops([("permi", tuple(perm))])]
    lines.append("    ret r0")
    return parse_function("func permi_t():\nentry:\n" + "\n".join(lines))


class TestPermiInstruction:
    PERM = (2, 0, 1, 3)

    def test_parse_print_roundtrip(self):
        fn = _permi_function(4, self.PERM)
        assert "permi 2, 0, 1, 3" in format_function(fn)
        again = parse_function(format_function(fn))
        assert format_function(again) == format_function(fn)

    def test_both_engines_apply_the_permutation(self):
        fn = _permi_function(4, self.PERM)
        for engine in ("fast", "reference"):
            res = Interpreter(engine=engine).run(fn, ())
            for i, p in enumerate(self.PERM):
                assert res.regs[Reg(i, virtual=False)] == 101 + p

    def test_wire_roundtrip(self):
        from repro.ir.wire import from_wire, to_wire

        fn = _permi_function(4, self.PERM)
        assert format_function(from_wire(to_wire(fn))) == format_function(fn)

    def test_binary_roundtrip(self):
        from repro.encoding.binary import pack_function, unpack_function
        from repro.encoding.config import EncodingConfig
        from repro.encoding.encoder import encode_function
        from repro.fuzz.mutate import strip_setlr

        fn = _permi_function(4, self.PERM)
        encoded = encode_function(fn, EncodingConfig(reg_n=4, diff_n=2))
        decoded = unpack_function(pack_function(encoded))
        assert format_function(decoded) == format_function(strip_setlr(fn))

    def test_machine_flag_and_timing(self):
        from repro.machine.lowend import simulate
        from repro.machine.spec import LOWEND, LOWEND_PERMI

        assert not LOWEND.has_permi and LOWEND_PERMI.has_permi
        assert LOWEND_PERMI.extra_latency["permi"] == 1
        assert any("ermutation" in name for name, _ in LOWEND_PERMI.rows())
        fn = _permi_function(4, self.PERM)
        _, report = simulate(fn, (), LOWEND_PERMI)
        # 4 li + 1 permi + ret, the permi paying one extra cycle
        assert report.instructions == 6
        assert report.cycles >= report.instructions + 1

    def test_decoder_crossbar_estimate(self):
        from repro.encoding.config import EncodingConfig
        from repro.machine.decoder import DecoderCostModel

        model = DecoderCostModel(EncodingConfig(reg_n=8, diff_n=4))
        est = model.permi_estimate()
        assert est.operands == 8
        assert est.gate_count == 8 * 7 * 3 * 3  # lanes x mux2 x bits x gates
        assert est.logic_levels == 3  # ceil(log2 8)


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

    def test_permi_rewrites_temp_rotation(self):
        # a swap spelled through a temp, plus a tail copy: 4 movs become
        # mov + permi under the machine flag
        body = ("    li r1, 1\n    li r2, 2\n    li r6, 6\n"
                "    mov r3, r1\n    mov r1, r2\n"
                "    mov r2, r3\n    mov r3, r6\n"
                "    add r0, r1, r3\n")
        fn = _run_fn(body)
        ref = Interpreter(engine="reference").run(fn, ())
        stats = resolve_move_runs(fn, 8, has_permi=True)
        assert stats.runs_rewritten == 1 and stats.permis == 1
        assert stats.instructions_saved == 2
        after = Interpreter(engine="reference").run(fn, ())
        assert after.return_value == ref.return_value

    def test_stats_dict_shape(self):
        fn = _run_fn("    li r1, 1\n    li r2, 2\n"
                     "    mov r1, r2\n    mov r2, r1\n"
                     "    add r0, r1, r2\n")
        stats = resolve_move_runs(fn, 4)
        assert stats.as_stats() == {
            "moves_runs_seen": 1.0,
            "moves_runs_rewritten": 1.0,
            "moves_instructions_saved": 1.0,
            "moves_permis": 0.0,
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
