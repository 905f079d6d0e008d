"""Property-based tests for the software-pipelining substrate.

Random DDGs (small loops of the Section 10.2 population) must always
yield schedules that satisfy every dependence and every modulo resource
limit; kernel allocation must always respect the register budget or flag
itself as derated.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from tests.conftest import loop_ddgs
from repro.machine.spec import VLIWConfig
from repro.swp import allocate_kernel, modulo_schedule

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


def machine_configs():
    return st.builds(
        VLIWConfig,
        n_functional_units=st.integers(min_value=2, max_value=6),
        n_memory_ports=st.integers(min_value=1, max_value=3),
    )


class TestSchedulerProperties:
    @given(ddg=loop_ddgs(), machine=machine_configs())
    @settings(max_examples=60, **COMMON)
    def test_schedule_respects_dependences_and_resources(self, ddg, machine):
        s = modulo_schedule(ddg, machine)
        for d in ddg.deps:
            assert (s.times[d.dst] + s.ii * d.distance
                    >= s.times[d.src] + ddg.op(d.src).latency)
        fu = [0] * s.ii
        mem = [0] * s.ii
        for op in ddg.ops:
            slot = s.times[op.id] % s.ii
            fu[slot] += 1
            if op.uses_memory_port:
                mem[slot] += 1
        assert max(fu) <= machine.n_functional_units
        assert max(mem, default=0) <= machine.n_memory_ports

    @given(ddg=loop_ddgs())
    @settings(max_examples=40, **COMMON)
    def test_ii_at_least_both_bounds(self, ddg):
        s = modulo_schedule(ddg)
        assert s.ii >= ddg.res_mii()
        assert s.ii >= ddg.rec_mii()

    @given(ddg=loop_ddgs())
    @settings(max_examples=40, **COMMON)
    def test_times_nonnegative_and_maxlive_positive(self, ddg):
        s = modulo_schedule(ddg)
        assert min(s.times.values()) >= 0
        if any(op.produces_value for op in ddg.ops):
            assert s.max_live() >= 1


class TestAllocationProperties:
    @given(ddg=loop_ddgs(), reg_n=st.integers(min_value=8, max_value=48))
    @settings(max_examples=40, **COMMON)
    def test_budget_respected_or_derated(self, ddg, reg_n):
        alloc = allocate_kernel(ddg, reg_n)
        if not alloc.derated:
            assert alloc.max_live <= reg_n
        assert all(0 <= r < reg_n for r in alloc.assignment.values())

    @given(ddg=loop_ddgs())
    @settings(max_examples=25, **COMMON)
    def test_spill_transform_keeps_ddg_well_formed(self, ddg):
        victims = [op.id for op in ddg.ops if op.produces_value][:2]
        next_id = max(op.id for op in ddg.ops) + 1
        current = ddg
        for v in victims:
            current, next_id = current.with_spilled_value(v, next_id)
        # constructor re-validates; scheduling must still succeed
        s = modulo_schedule(current)
        assert s.ii >= 1
