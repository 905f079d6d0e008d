"""Allocator-zoo tests: registry API and differential equivalence.

The registry contract (register/lookup/capability metadata) plus the
subsystem's reason to exist: every registered backend, run through the
shared ``run_setup`` pipeline, must be observationally equivalent to
``baseline`` — on real kernels and on a seeded fuzz corpus, gated on
the symbolic checker, the interference lint and the binary round trip
(all of which :func:`repro.fuzz.run_case` applies per setup).
"""

import pytest

from repro.analysis.ssa import construct_ssa, destruct_ssa
from repro.fuzz import (FuzzConfig, generate_fuzz_function, knob_matrix,
                        run_case)
from repro.fuzz.harness import case_seed, default_config
from repro.ir import FunctionBuilder, Interpreter
from repro.regalloc import (PAPER_SETUPS, SETUPS, run_setup,
                            ssa_spill_allocate)
from repro.regalloc.base import AllocationError, check_allocation
from repro.regalloc.zoo import (AllocatorContext, AllocatorInfo,
                                allocator_names, get_allocator,
                                list_allocators, register_allocator,
                                unregister_allocator)
from repro.workloads import MIBENCH

from tests.conftest import make_pressure_fn

N_FUZZ_SEEDS = 100


class TestRegistry:
    def test_builtins_registered(self):
        assert allocator_names() == (
            "baseline", "remapping", "select", "ospill", "coalesce",
            "ssa_spill")
        assert SETUPS == allocator_names()

    def test_paper_setups_are_a_prefix(self):
        assert PAPER_SETUPS == SETUPS[:len(PAPER_SETUPS)]
        assert "ssa_spill" not in PAPER_SETUPS

    def test_capability_metadata(self):
        by_name = {info.name: info for info in list_allocators()}
        assert not by_name["baseline"].differential
        assert by_name["remapping"].differential
        assert by_name["ssa_spill"].needs_ssa
        assert by_name["ssa_spill"].spill_style == "everywhere"
        for info in by_name.values():
            doc = info.to_dict()
            assert doc["name"] == info.name

    def test_get_unknown_names_the_known(self):
        with pytest.raises(KeyError, match="baseline"):
            get_allocator("nope")

    def test_register_and_unregister(self):
        info = AllocatorInfo(name="zoo_test_dummy", description="d",
                             spill_style="none", differential=False)
        register_allocator(info, lambda fn, ctx: None)
        try:
            assert "zoo_test_dummy" in allocator_names()
            assert get_allocator("zoo_test_dummy").info is info
        finally:
            unregister_allocator("zoo_test_dummy")
        assert "zoo_test_dummy" not in allocator_names()

    def test_duplicate_rejected(self):
        info = AllocatorInfo(name="zoo_test_dup", description="d",
                             spill_style="none", differential=False)
        register_allocator(info, lambda fn, ctx: None)
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_allocator(info, lambda fn, ctx: None)
        finally:
            unregister_allocator("zoo_test_dup")

    def test_bad_names_rejected(self):
        for bad in ("", "has space", "has-dash", "ha/sh"):
            with pytest.raises(ValueError):
                register_allocator(
                    AllocatorInfo(name=bad, description="d",
                                  spill_style="none", differential=False),
                    lambda fn, ctx: None)

    def test_runner_must_be_callable(self):
        with pytest.raises(TypeError):
            register_allocator(
                AllocatorInfo(name="zoo_test_nc", description="d",
                              spill_style="none", differential=False),
                None)

    def test_custom_backend_served_by_run_setup(self, sum_fn):
        from repro.regalloc.iterated import iterated_allocate

        info = AllocatorInfo(name="zoo_test_live", description="d",
                             spill_style="iterated", differential=False)
        register_allocator(
            info, lambda fn, ctx: iterated_allocate(fn, ctx.reg_n))
        try:
            prog = run_setup(sum_fn, "zoo_test_live")
            ref = Interpreter().run(sum_fn, (5,)).return_value
            assert Interpreter().run(
                prog.final_fn, (5,)).return_value == ref
        finally:
            unregister_allocator("zoo_test_live")

    def test_context_carries_pipeline_knobs(self):
        seen = {}

        def runner(fn, ctx):
            seen["ctx"] = ctx
            from repro.regalloc.iterated import iterated_allocate
            return iterated_allocate(fn, ctx.base_k)

        info = AllocatorInfo(name="zoo_test_ctx", description="d",
                             spill_style="iterated", differential=False)
        register_allocator(info, runner)
        try:
            run_setup(make_pressure_fn(seed=4), "zoo_test_ctx",
                      base_k=7, reg_n=11, diff_n=6)
        finally:
            unregister_allocator("zoo_test_ctx")
        ctx = seen["ctx"]
        assert isinstance(ctx, AllocatorContext)
        assert (ctx.base_k, ctx.reg_n, ctx.diff_n) == (7, 11, 6)


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
