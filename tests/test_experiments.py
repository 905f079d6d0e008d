"""Experiment-harness integration tests (small configurations)."""

import pytest

from repro.experiments import (
    Table,
    geo_mean,
    run_lowend_experiment,
    run_swp_experiment,
)
from repro.experiments.reporting import arith_mean
from repro.workloads import MIBENCH
from repro.workloads.spec_loops import generate_loop_population


class TestReporting:
    def test_table_renders_aligned(self):
        t = Table("demo", ["a", "long_header"])
        t.add_row(1, 2.5)
        t.add_row("x", 3.25)
        out = t.render()
        assert "demo" in out
        assert "2.50" in out and "3.25" in out

    def test_wrong_cell_count(self):
        t = Table("demo", ["a"])
        with pytest.raises(ValueError):
            t.add_row(1, 2)

    def test_means(self):
        assert arith_mean([1.0, 3.0]) == 2.0
        assert abs(geo_mean([1.0, 4.0]) - 2.0) < 1e-9
        assert geo_mean([]) == 0.0


@pytest.fixture(scope="module")
def small_lowend():
    return run_lowend_experiment(
        workloads=MIBENCH[:3], remap_restarts=5,
    )


class TestLowEndExperiment:
    def test_all_rows_present(self, small_lowend):
        assert len(small_lowend.rows) == 3 * 5

    def test_miscompiled_setup_fails_the_proof(self, miscompiled_select):
        # rows are timed from traces derived off the input's recording, so
        # a miscompile never shows in a return value; run_setup's
        # semantics proof must stop the grid instead
        from repro.diagnostics import LintError

        with pytest.raises(LintError) as exc_info:
            run_lowend_experiment(workloads=MIBENCH[:1], remap_restarts=2)
        assert "C002" in str(exc_info.value)
        assert "select allocation fails the semantics proof" in str(
            exc_info.value)

    def test_all_figures_render(self, small_lowend):
        text = small_lowend.render_all()
        for marker in ("Table 1", "Figure 11", "Figure 12", "Figure 13",
                       "Figure 14"):
            assert marker in text

    def test_baseline_spills_most(self, small_lowend):
        for b in small_lowend.benchmarks():
            base = small_lowend.row(b, "baseline").spills
            for s in ("remapping", "select", "coalesce"):
                assert small_lowend.row(b, s).spills <= base

    def test_differential_setups_carry_cost(self, small_lowend):
        fig12_setups = [
            s for s in small_lowend.setups()
            if s in ("remapping", "select", "coalesce")
        ]
        assert fig12_setups
        assert all(
            small_lowend.row(b, s).setlr >= 0
            for b in small_lowend.benchmarks() for s in fig12_setups
        )

    def test_row_lookup_missing(self, small_lowend):
        with pytest.raises(KeyError):
            small_lowend.row("nope", "baseline")


class TestSwpExperiment:
    @pytest.fixture(scope="class")
    def small_swp(self):
        pop = generate_loop_population(n=40, seed=11)
        return run_swp_experiment(population=pop, remap_restarts=2)

    def test_tables_render(self, small_swp):
        text = small_swp.render_all()
        assert "Table 2" in text and "Table 3" in text

    def test_speedup_nonnegative_and_saturating(self, small_swp):
        rows = {}
        opt = small_swp.optimized_loops()
        if not opt:
            pytest.skip("population too small to contain optimized loops")
        for reg_n in (40, 48, 56, 64):
            rows[reg_n] = small_swp._speedup(opt, reg_n)
        assert rows[40] >= 0
        assert rows[64] >= rows[40] - 1e9  # monotone-ish; exact check below
        assert rows[64] >= rows[48] * 0.99

    def test_spills_fall_with_registers(self, small_swp):
        opt = small_swp.optimized_loops()
        if not opt:
            pytest.skip("no optimized loops in tiny population")
        s32 = sum(l.spills[32] for l in opt)
        s64 = sum(l.spills[64] for l in opt)
        assert s64 <= s32

    def test_unoptimized_loops_unchanged(self, small_swp):
        for l in small_swp.loops:
            if not l.optimized:
                assert l.cycles[32] == l.cycles[64]
                assert l.setlr[64] == 0
