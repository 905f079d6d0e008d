"""Deep tests for the optimal-spill internals: the plan-cost evaluator,
residence vectors, and the splitting codegen's invariants."""

import pytest

from repro.analysis import compute_liveness
from repro.ir import Interpreter, parse_function, vreg
from repro.regalloc.optimal_spill import (
    apply_residence,
    decide_residence,
    residence_plan_cost,
)

from tests.conftest import make_pressure_fn


class TestPlanCostEvaluator:
    def test_zero_for_unspilled_plan(self, sum_fn):
        plan = decide_residence(sum_fn, 4)
        assert plan.spilled == set()
        assert residence_plan_cost(sum_fn, plan) == 0.0

    def test_ilp_objective_matches_evaluator(self, pressure_fn):
        plan = decide_residence(pressure_fn, 8, use_ilp=True)
        assert plan.solver == "ilp"
        assert residence_plan_cost(pressure_fn, plan) == pytest.approx(
            plan.objective
        )

    def test_load_cost_weighting(self, pressure_fn):
        plan = decide_residence(pressure_fn, 8, use_ilp=False)
        cheap = residence_plan_cost(pressure_fn, plan, load_cost=1.0)
        pricey = residence_plan_cost(pressure_fn, plan, load_cost=5.0)
        assert pricey > cheap

    def test_frequency_weighting(self, pressure_fn):
        plan = decide_residence(pressure_fn, 8, use_ilp=False)
        flat = residence_plan_cost(pressure_fn, plan, freq={})
        hot = residence_plan_cost(
            pressure_fn, plan,
            freq={b.name: 100.0 for b in pressure_fn.blocks},
        )
        assert hot > flat


class TestResidenceVectors:
    def test_is_resident_semantics(self, pressure_fn):
        plan = decide_residence(pressure_fn, 8)
        liveness = compute_liveness(pressure_fn)
        for v in plan.spilled:
            # a spilled value must be non-resident somewhere it is live
            assert any(
                not plan.is_resident(v, b.name, j)
                for b in pressure_fn.blocks
                for j in range(len(b.instrs) + 1)
            )

    def test_unspilled_always_resident(self, pressure_fn):
        plan = decide_residence(pressure_fn, 8)
        unspilled = [
            r for r in pressure_fn.registers()
            if r.virtual and r not in plan.spilled
        ]
        assert unspilled
        v = unspilled[0]
        assert plan.is_resident(v, pressure_fn.blocks[0].name, 0)


class TestSplittingInvariants:
    def test_no_consecutive_redundant_reloads(self, pressure_fn):
        plan = decide_residence(pressure_fn, 8)
        split_fn, _ = apply_residence(pressure_fn, plan)
        # a reload followed immediately by a reload of the same slot with
        # no intervening use would be waste the ILP cannot emit
        for block in split_fn.blocks:
            for a, b in zip(block.instrs, block.instrs[1:]):
                if a.op == "ldslot" and b.op == "ldslot":
                    assert a.imm != b.imm

    def test_stores_only_for_dirty_values(self):
        # a value loaded and only read needs no write-back
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
    add v9, v9, v1
    ret v9
""")
        plan = decide_residence(fn, 4)
        split_fn, _ = apply_residence(fn, plan)
        # params are stored once (dirty on entry); but reloaded read-only
        # segments never store again: each spilled slot stores at most...
        stores = [i.imm for i in split_fn.instructions() if i.op == "stslot"]
        assert len(stores) == len(set(stores)), \
            "read-only values were written back more than once"
        args = tuple(range(1, 10))
        assert Interpreter().run(split_fn, args).return_value == \
            Interpreter().run(fn, args).return_value

    def test_split_keeps_block_structure(self, pressure_fn):
        plan = decide_residence(pressure_fn, 8)
        split_fn, _ = apply_residence(pressure_fn, plan)
        assert [b.name for b in split_fn.blocks] == \
            [b.name for b in pressure_fn.blocks]

    @pytest.mark.parametrize("k", (6, 8, 10))
    def test_semantics_across_budgets(self, k):
        fn = make_pressure_fn(nvals=12, seed=3, name=f"b{k}")
        ref = Interpreter().run(fn, (4,)).return_value
        plan = decide_residence(fn, k)
        split_fn, _ = apply_residence(fn, plan)
        assert Interpreter().run(split_fn, (4,)).return_value == ref
