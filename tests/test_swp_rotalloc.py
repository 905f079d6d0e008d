"""Kernel register allocation tests (scheduling + spilling + renaming)."""

import pytest

from repro.swp import Dep, LoopDDG, LoopOp, allocate_kernel
from repro.workloads.spec_loops import generate_loop


class TestFit:
    def test_small_loop_no_spills(self):
        ops = [LoopOp(i) for i in range(6)]
        deps = [Dep(i, i + 1) for i in range(5)]
        a = allocate_kernel(LoopDDG(ops, deps), 32)
        assert a.n_spill_ops == 0
        assert a.max_live <= 32

    @pytest.mark.parametrize("seed", range(6))
    def test_small_generated_loops(self, seed):
        spec = generate_loop(seed + 100)
        a = allocate_kernel(spec.ddg, 32)
        assert not a.derated
        assert a.max_live <= 32

    @pytest.mark.parametrize("seed", [201, 202, 204])
    def test_big_loops_fit_with_spills_or_derating(self, seed):
        spec = generate_loop(seed, big=True)
        a = allocate_kernel(spec.ddg, 32)
        assert a.derated or a.max_live <= 32

    def test_more_registers_fewer_spills(self):
        spec = generate_loop(205, big=True)
        spills = {}
        for reg_n in (32, 48, 64):
            spills[reg_n] = allocate_kernel(spec.ddg, reg_n).n_spill_ops
        assert spills[32] >= spills[48] >= spills[64]

    def test_more_registers_never_slower(self):
        spec = generate_loop(206, big=True)
        iis = [allocate_kernel(spec.ddg, r).ii for r in (32, 48, 64)]
        assert iis[0] >= iis[1] >= iis[2]


class TestAssignment:
    def test_registers_within_budget(self):
        spec = generate_loop(301)
        a = allocate_kernel(spec.ddg, 30)
        assert all(0 <= r < 30 for r in a.assignment.values())

    def test_every_value_assigned(self):
        spec = generate_loop(302)
        a = allocate_kernel(spec.ddg, 32)
        values = {
            op.id for op in a.schedule.ddg.ops if op.produces_value
        }
        assert set(a.assignment) == values


class TestDerating:
    def test_derated_marks_result(self):
        # an extreme artificial loop: many long-lived values
        ops = [LoopOp(i) for i in range(60)]
        deps = [Dep(i, 59, distance=0) for i in range(59)]
        ddg = LoopDDG(ops, deps)
        a = allocate_kernel(ddg, 4, max_spills=0)
        assert a.derated
        assert a.ii > a.schedule.ii  # derating inflates the II
        assert a.n_spill_ops > 0
