"""Linear-scan allocator tests."""

from repro.ir import Interpreter, vreg
from repro.regalloc.linearscan import linear_scan_allocate, live_intervals


class TestLiveIntervals:
    def test_interval_bounds(self, sum_fn):
        ivs = {iv.reg: iv for iv in live_intervals(sum_fn)}
        # acc (v2): defined at index 1, used through ret (index 5)
        assert ivs[vreg(2)].start <= 1
        assert ivs[vreg(2)].end == 5

    def test_loop_carried_spans_loop(self, sum_fn):
        ivs = {iv.reg: iv for iv in live_intervals(sum_fn)}
        # n (v0) is live through the whole loop though only used by blt
        assert ivs[vreg(0)].start <= 1
        assert ivs[vreg(0)].end >= 4

    def test_sorted_by_start(self, pressure_fn):
        ivs = live_intervals(pressure_fn)
        starts = [iv.start for iv in ivs]
        assert starts == sorted(starts)


class TestLinearScan:
    def test_coloring_disjoint_for_overlaps(self, pressure_fn):
        res = linear_scan_allocate(pressure_fn, 16)
        ivs = {iv.reg: iv for iv in live_intervals(pressure_fn)}
        for a, ia in ivs.items():
            for b, ib in ivs.items():
                if a >= b:
                    continue
                overlap = not (ia.end < ib.start or ib.end < ia.start)
                if overlap and a in res.coloring and b in res.coloring:
                    assert res.coloring[a] != res.coloring[b]


class TestRemapAfterLinearScan:
    def test_remapping_composes(self, pressure_fn):
        """Section 5: 'differential remapping can follow any register
        allocator'."""
        from repro.regalloc import differential_remap

        res = linear_scan_allocate(pressure_fn, 12)
        remap = differential_remap(res.fn, 12, 8, restarts=10)
        assert remap.cost_after <= remap.cost_before
        ref = Interpreter().run(pressure_fn, (4,)).return_value
        assert Interpreter().run(remap.fn, (4,)).return_value == ref
