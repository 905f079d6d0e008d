"""Setup-table tests: the rows ``run_setup`` runs, and differential
equivalence.

The table's contract (names, order, capability metadata, the budget and
stage boundaries ``run_setup`` applies per row) plus every setup's
reason to exist: each one, run through the shared ``run_setup``
pipeline, must be observationally equivalent to ``baseline`` — on real
kernels and on a seeded fuzz corpus, gated on the symbolic checker, the
interference lint and the binary round trip (all of which
:func:`repro.fuzz.run_case` applies per setup).
"""

import pytest

from repro.analysis.ssa import construct_ssa, destruct_ssa
from repro.fuzz import FuzzConfig, generate_fuzz_function, run_case
from repro.fuzz.harness import case_seed, default_config
from repro.ir import FunctionBuilder, Interpreter
from repro.lint import PassVerifier
from repro.regalloc import (PAPER_SETUPS, SETUPS, run_setup,
                            ssa_spill_allocate)
from repro.regalloc.base import AllocationError, check_allocation
from repro.regalloc.pipeline import SETUP_TABLE
from repro.workloads import MIBENCH

from tests.conftest import knob_matrix, make_pressure_fn

N_FUZZ_SEEDS = 100


class TestRegistry:
    """``SETUP_TABLE``, the one list of setups."""

    def test_builtins_registered(self):
        assert SETUPS == (
            "baseline", "remapping", "select", "ospill", "coalesce",
            "ssa_spill")
        assert SETUPS == tuple(row.name for row in SETUP_TABLE)

    def test_paper_setups_are_a_prefix(self):
        assert PAPER_SETUPS == SETUPS[:len(PAPER_SETUPS)]
        assert "ssa_spill" not in PAPER_SETUPS

    def test_capability_metadata(self):
        by_name = {row.name: row for row in SETUP_TABLE}
        assert not by_name["baseline"].differential
        assert by_name["remapping"].differential
        assert by_name["ssa_spill"].needs_ssa
        assert by_name["ssa_spill"].spill_style == "everywhere"
        for row in by_name.values():
            doc = row.to_dict()
            assert sorted(doc) == ["description", "differential", "name",
                                   "needs_ssa", "source", "spill_style"]
            assert doc["name"] == row.name

    def test_get_unknown_names_the_known(self, sum_fn):
        with pytest.raises(ValueError, match="baseline"):
            run_setup(sum_fn, "nope")

    @pytest.mark.parametrize("setup,budget", [
        ("baseline", 7), ("ospill", 7),
        ("remapping", 11), ("select", 11), ("coalesce", 11),
        ("ssa_spill", 11),
    ])
    def test_run_setup_applies_budgets(self, setup, budget):
        """Differential rows allocate at ``reg_n``, the others at
        ``base_k``; the encoding takes ``reg_n``/``diff_n``."""
        prog = run_setup(make_pressure_fn(seed=4), setup, base_k=7,
                         reg_n=11, diff_n=6, remap_restarts=2)
        used = {r.id for r in prog.final_fn.registers() if not r.virtual}
        assert used and max(used) < budget
        if prog.encoded is not None:
            config = prog.encoded.config
            assert (config.reg_n, config.diff_n) == (11, 6)
        assert (prog.encoded is not None) == (setup not in ("baseline",
                                                            "ospill"))

    def test_stage_names(self):
        """``run_setup`` checkpoints each row at the same boundaries: the
        input, the row's allocation stage, then (differential rows) the
        chosen encoding and, when it deletes a repair, ``setlr_elim``."""
        alloc_stage = {"baseline": "iterated", "remapping": "iterated",
                       "select": "diff_select", "ospill": "ospill",
                       "coalesce": "diff_coalesce", "ssa_spill": "ssa_spill"}
        for setup in SETUPS:
            verifier = PassVerifier()
            run_setup(make_pressure_fn(seed=4), setup, remap_restarts=2,
                      pass_verifier=verifier, setlr_elim=False)
            expected = [f"{setup}:input", f"{setup}:alloc:{alloc_stage[setup]}"]
            if setup not in ("baseline", "ospill"):
                expected.append(f"{setup}:encode:remap")
            assert [r.pass_name for r in verifier.history] == expected
        verifier = PassVerifier()
        run_setup(make_pressure_fn(seed=4), "select", remap_restarts=2,
                  pass_verifier=verifier)
        assert [r.pass_name for r in verifier.history] == [
            "select:input", "select:alloc:diff_select", "select:encode:remap",
            "select:encode:setlr_elim"]


class TestSSABackendDirect:
    def test_budget_and_validity(self):
        fn = make_pressure_fn(seed=2)
        result = ssa_spill_allocate(fn, 12)
        check_allocation(result, 12)
        used = {r.id for r in result.fn.registers() if not r.virtual}
        assert used and max(used) < 12

    def test_semantics_at_tight_budget(self):
        fn = make_pressure_fn(seed=5)
        ref = Interpreter().run(fn, (4,)).return_value
        for k in (12, 8, 6):
            result = ssa_spill_allocate(fn, k)
            got = Interpreter().run(result.fn, (4,)).return_value
            assert got == ref, f"k={k}"

    def test_stats_exported(self):
        result = ssa_spill_allocate(make_pressure_fn(seed=6), 8)
        for key in ("ssa_phis", "ssa_versions", "spilled_everywhere",
                    "spill_slots"):
            assert key in result.stats

    def test_uncolorable_temporaries_spill_a_real_neighbor(self):
        """The call's three dead defs interfere with each other and with
        ``a``/``b`` (one value under two names), so k=3 needs a spill.
        Spilling a dead def cannot help (its store temporary needs a
        register at the same def), so the uncolored defs are never
        spilled: the fallback spills their real neighbors instead, the
        copied value's two names, one round each."""
        fb = FunctionBuilder("deadcall")
        a, b, d1, d2, d3, total = fb.vregs(6)
        fb.block("entry")
        fb.li(a, 5)
        fb.mov(b, a)
        fb.call("ext", defs=(d1, d2, d3))
        fb.add(total, a, b)
        fb.ret(total)
        fn = fb.build()
        result = ssa_spill_allocate(fn, 3)
        check_allocation(result, 3, colored_fn=result.colored_fn)
        assert Interpreter().run(result.fn, ()).return_value == 10

        # the allocator colors this SSA round trip of ``fn``, where ``a``
        # and ``b`` are the defs of the li and the mov
        ssa_fn = destruct_ssa(construct_ssa(fn))
        copied = {i.dst for i in ssa_fn.instructions()
                  if i.op in ("li", "mov")}
        assert result.spilled == copied
        assert result.rounds == 3  # one neighbor spill per failed round
        call_defs = {d for i in result.colored_fn.instructions()
                     if i.op == "call" for d in i.call_defs}
        assert not any(i.op == "stslot" and i.srcs[0] in call_defs
                       for i in result.colored_fn.instructions())

    def test_unspillable_temporaries_raise(self):
        """The fallback for a round whose uncolored values are all spill
        temporaries: with no real neighbor to spill instead, it gives up
        rather than clone the temporaries forever."""
        fn = generate_fuzz_function(24, knob_matrix()[24])
        with pytest.raises(AllocationError,
                           match="only unspillable temporaries left "
                                 "uncolored at k=2"):
            ssa_spill_allocate(fn, 2)


class TestDifferentialEquivalence:
    """Every backend vs baseline, with the full oracle battery."""

    @pytest.mark.parametrize("workload,bench", [
        *(pytest.param(w.name, False, id=w.name) for w in MIBENCH[:6]),
        *(pytest.param(w.name, True, id=f"{w.name}-bench") for w in MIBENCH),
    ])
    def test_mibench_equivalence(self, workload, bench):
        """The ``-bench`` cases run every kernel at ``bench_args`` scale
        with the greedy spiller and 3 restarts; the others run six
        kernels at ``default_args`` with the ILP spiller."""
        w = next(x for x in MIBENCH if x.name == workload)
        fn = w.function()
        if bench:
            args, options = w.bench_args, dict(remap_restarts=3,
                                               use_ilp=False)
        else:
            args, options = w.default_args, dict(remap_restarts=2)
        base = run_setup(fn, "baseline", **options)
        ref = Interpreter().run(base.final_fn, args).return_value
        for setup in SETUPS[1:]:
            prog = run_setup(fn, setup, **options)
            got = Interpreter().run(prog.final_fn, args).return_value
            assert got == ref, f"{setup} diverges from baseline on {workload}"

    @pytest.mark.parametrize("chunk", range(4))
    def test_fuzz_corpus_all_backends(self, chunk):
        """100 seeded cases through run_case's oracle battery (symbolic
        checker, L010, static verifier, binary round trip) across every
        registered setup, split into chunks to keep -x granular."""
        per = N_FUZZ_SEEDS // 4
        failures = []
        for i in range(chunk * per, (chunk + 1) * per):
            seed = case_seed(515, i)
            outcome = run_case(seed, default_config(515, i), restarts=1)
            failures.extend(
                dict(f, seed=seed) for f in outcome["failures"])
        assert not failures, failures[:3]
