"""Optimal-spill (Appel-George) allocator tests."""

import pytest

from repro.analysis import compute_liveness
from repro.ir import Interpreter, parse_function, vreg
from repro.regalloc import check_allocation, iterated_allocate, optimal_spill_allocate
from repro.regalloc.checker import check_allocation_semantics
from repro.regalloc.optimal_spill import (
    apply_residence,
    decide_residence,
)

from repro.workloads import get_workload
from tests.conftest import make_pressure_fn


class TestDecideResidence:
    def test_no_spills_when_pressure_fits(self, sum_fn):
        plan = decide_residence(sum_fn, 4)
        assert plan.spilled == set()

    def test_capacity_respected(self, pressure_fn):
        k = 8
        plan = decide_residence(pressure_fn, k)
        lv = compute_liveness(pressure_fn)
        for b in pressure_fn.blocks:
            n = len(b.instrs)
            for j in range(n + 1):
                live = (lv.instr_live_in[b.instrs[j].uid] if j < n
                        else lv.live_out[b.name])
                resident = sum(
                    1 for v in live
                    if v.virtual and plan.is_resident(v, b.name, j)
                )
                assert resident <= k

    def test_uses_forced_resident(self, pressure_fn):
        plan = decide_residence(pressure_fn, 8)
        for b in pressure_fn.blocks:
            for j, instr in enumerate(b.instrs):
                for v in instr.uses():
                    if v.virtual and v in plan.spilled:
                        assert plan.is_resident(v, b.name, j)

    def test_ilp_solver_used(self, pressure_fn):
        plan = decide_residence(pressure_fn, 8, use_ilp=True)
        assert plan.solver == "ilp"

    def test_greedy_fallback(self, pressure_fn):
        plan = decide_residence(pressure_fn, 8, use_ilp=False)
        assert plan.solver == "greedy"
        assert plan.spilled

    def test_ilp_objective_not_worse_than_greedy(self, pressure_fn):
        ilp = decide_residence(pressure_fn, 8, use_ilp=True)
        greedy = decide_residence(pressure_fn, 8, use_ilp=False)
        # counted on the same weighted-transitions metric the ILP minimises,
        # greedy spill-everywhere can only do worse or equal
        assert ilp.objective <= greedy.objective


def test_mibench_ilp_setups_solve_with_ilp():
    """Every MiBench run of the two ILP setups is solved by the ILP, not
    by the greedy fallback."""
    from repro.regalloc import run_setup
    from repro.workloads.mibench import MIBENCH

    fallbacks = [
        (w.name, setup)
        for w in MIBENCH
        for setup in ("ospill", "coalesce")
        if run_setup(w.function(), setup).allocation.stats["ospill_solver"]
        != 1.0
    ]
    assert fallbacks == []


class TestApplyResidence:
    @pytest.mark.parametrize("use_ilp", [True, False])
    def test_split_function_semantics(self, pressure_fn, use_ilp):
        ref = Interpreter().run(pressure_fn, (5,)).return_value
        plan = decide_residence(pressure_fn, 8, use_ilp=use_ilp)
        split_fn, _ = apply_residence(pressure_fn, plan)
        assert Interpreter().run(split_fn, (5,)).return_value == ref

    def test_split_lowers_pressure(self, pressure_fn):
        plan = decide_residence(pressure_fn, 8)
        split_fn, _ = apply_residence(pressure_fn, plan)
        assert compute_liveness(split_fn).max_pressure() <= \
            compute_liveness(pressure_fn).max_pressure()

    def test_unspilled_plan_is_identity(self, sum_fn):
        plan = decide_residence(sum_fn, 4)
        split_fn, nxt = apply_residence(sum_fn, plan)
        assert split_fn.num_instructions() == sum_fn.num_instructions()

    def test_spilled_param_handled(self):
        fn = parse_function("""
func f(v0, v1, v2, v3, v4, v5, v6, v7, v8):
entry:
    add v9, v0, v1
    add v9, v9, v2
    add v9, v9, v3
    add v9, v9, v4
    add v9, v9, v5
    add v9, v9, v6
    add v9, v9, v7
    add v9, v9, v8
    add v9, v9, v0
    ret v9
""")
        args = tuple(range(1, 10))
        ref = Interpreter().run(fn, args).return_value
        plan = decide_residence(fn, 4)
        split_fn, _ = apply_residence(fn, plan)
        assert Interpreter().run(split_fn, args).return_value == ref

    def test_greedy_plan_writes_back_before_a_spilled_successor(self):
        # dijkstra's fall-through block dist_src ends by defining a value
        # the greedy plan leaves in a register, and round_next enters with
        # it in memory: the value must reach its slot before the edge
        fn = get_workload("dijkstra").function()
        plan = decide_residence(fn, 8, use_ilp=False)
        assert plan.solver == "greedy"
        split_fn, _ = apply_residence(fn, plan)
        assert split_fn.block("dist_src").instrs[-1].op == "stslot"
        assert check_allocation_semantics(fn, split_fn).ok


class TestEndToEnd:
    @pytest.mark.parametrize("use_ilp", [True, False])
    def test_full_pipeline(self, pressure_fn, use_ilp):
        ref = Interpreter().run(pressure_fn, (4,)).return_value
        res = optimal_spill_allocate(pressure_fn, 8, use_ilp=use_ilp)
        check_allocation(res, 8)
        assert Interpreter().run(res.fn, (4,)).return_value == ref
        assert res.stats["ospill_solver"] == (1.0 if use_ilp else 0.0)

    def test_stats_recorded(self, pressure_fn):
        res = optimal_spill_allocate(pressure_fn, 8)
        assert "ospill_objective" in res.stats
        assert "ospill_spilled_ranges" in res.stats

    @pytest.mark.parametrize("seed", range(3))
    def test_random_kernels(self, seed):
        fn = make_pressure_fn(nvals=12, seed=seed, name=f"os{seed}")
        ref = Interpreter().run(fn, (4,)).return_value
        res = optimal_spill_allocate(fn, 8)
        assert Interpreter().run(res.fn, (4,)).return_value == ref

    def test_no_pressure_means_no_spills(self, sum_fn):
        res = optimal_spill_allocate(sum_fn, 4)
        assert res.n_spill_instructions == 0
