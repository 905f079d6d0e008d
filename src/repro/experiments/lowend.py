"""The low-end evaluation: Table 1 and Figures 11-14 (Section 10.1).

Every MiBench-like kernel runs through the five setups; per setup we record
static spills, ``set_last_reg`` cost, code size, and simulated cycles, then
print the same comparisons the paper plots:

* **Figure 11** — static spill percentage over the entire code.
* **Figure 12** — ``set_last_reg`` percentage for the three differential
  schemes.
* **Figure 13** — code size normalised to the baseline.
* **Figure 14** — speedup over the baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence

from repro.experiments.reporting import Table, arith_mean
from repro.machine.lowend import LowEndTimingModel
from repro.machine.reuse import interpret_or_derive, record_and_profile
from repro.machine.spec import LOWEND, LowEndConfig
from repro.parallel import parallel_map
from repro.regalloc.pipeline import PAPER_SETUPS, AllocatedProgram, run_setup
from repro.workloads.mibench import MIBENCH, Workload

__all__ = ["BenchmarkRow", "LowEndExperiment", "run_lowend_experiment",
           "table1"]

DIFFERENTIAL_SETUPS = ("remapping", "select", "coalesce")


def table1(config: LowEndConfig = LOWEND) -> Table:
    """The machine-configuration table (paper Table 1); it needs no
    experiment run."""
    t = Table("Table 1: low-end machine configuration",
              ["parameter", "value"])
    for k, v in config.rows():
        t.add_row(k, v)
    return t


@dataclass
class BenchmarkRow:
    """Metrics for one benchmark under one setup."""

    benchmark: str
    setup: str
    instructions: int
    spills: int
    setlr: int
    cycles: int

    @property
    def spill_fraction(self) -> float:
        return self.spills / self.instructions if self.instructions else 0.0

    @property
    def setlr_fraction(self) -> float:
        return self.setlr / self.instructions if self.instructions else 0.0


@dataclass
class LowEndExperiment:
    """All rows of the Section 10.1 study, with per-figure renderers."""

    rows: List[BenchmarkRow]
    base_k: int
    reg_n: int
    diff_n: int
    config: LowEndConfig = LOWEND
    #: the per-pass lint trail when run with ``verify_each_pass``
    pass_verifier: Optional[object] = None

    def row(self, benchmark: str, setup: str) -> BenchmarkRow:
        """Look up one (benchmark, setup) measurement."""
        for r in self.rows:
            if r.benchmark == benchmark and r.setup == setup:
                return r
        raise KeyError((benchmark, setup))

    def benchmarks(self) -> List[str]:
        """Benchmark names in first-seen order."""
        seen: List[str] = []
        for r in self.rows:
            if r.benchmark not in seen:
                seen.append(r.benchmark)
        return seen

    def setups(self) -> List[str]:
        """Setups present, in first-seen order."""
        seen: List[str] = []
        for r in self.rows:
            if r.setup not in seen:
                seen.append(r.setup)
        return seen

    # ------------------------------------------------------------------
    # figures
    # ------------------------------------------------------------------

    def table1(self) -> Table:
        """The machine-configuration table (paper Table 1)."""
        return table1(self.config)

    def fig11_spills(self) -> Table:
        """Static spill percentage over the entire code (paper averages:
        baseline 10.44, remapping 6.87, select 6.84, O-spill 7.32,
        coalesce 5.55)."""
        setups = self.setups()
        t = Table("Figure 11: static spill percentage", ["benchmark"] + list(setups))
        for b in self.benchmarks():
            t.add_row(b, *(100 * self.row(b, s).spill_fraction for s in setups))
        t.add_row("average", *(
            100 * arith_mean(self.row(b, s).spill_fraction
                             for b in self.benchmarks())
            for s in setups))
        return t

    def fig12_cost(self) -> Table:
        """set_last_reg percentage for the differential schemes (paper
        averages: remapping 10.41, select 4.21, coalesce 3.04)."""
        setups = [s for s in self.setups() if s in DIFFERENTIAL_SETUPS]
        t = Table("Figure 12: set_last_reg cost percentage",
                  ["benchmark"] + list(setups))
        for b in self.benchmarks():
            t.add_row(b, *(100 * self.row(b, s).setlr_fraction for s in setups))
        t.add_row("average", *(
            100 * arith_mean(self.row(b, s).setlr_fraction
                             for b in self.benchmarks())
            for s in setups))
        return t

    def fig13_codesize(self) -> Table:
        """Code size normalised to baseline (paper: remapping +7%,
        select <1%, O-spill -4%, coalesce -2%)."""
        setups = [s for s in self.setups() if s != "baseline"]
        t = Table("Figure 13: code size relative to baseline",
                  ["benchmark"] + list(setups))
        for b in self.benchmarks():
            base = self.row(b, "baseline").instructions
            t.add_row(b, *(self.row(b, s).instructions / base for s in setups))
        t.add_row("average", *(
            arith_mean(self.row(b, s).instructions
                       / self.row(b, "baseline").instructions
                       for b in self.benchmarks())
            for s in setups))
        return t

    def fig14_speedup(self) -> Table:
        """Percent speedup over baseline (paper averages: remapping 4.5,
        select 9.7, coalesce 12.1, O-spill 4.1)."""
        setups = [s for s in self.setups() if s != "baseline"]
        t = Table("Figure 14: speedup over baseline (%)",
                  ["benchmark"] + list(setups))
        speedups: Dict[str, List[float]] = {s: [] for s in setups}
        for b in self.benchmarks():
            base = self.row(b, "baseline").cycles
            row_vals = []
            for s in setups:
                sp = 100.0 * (base / self.row(b, s).cycles - 1.0)
                row_vals.append(sp)
                speedups[s].append(sp)
            t.add_row(b, *row_vals)
        t.add_row("average", *(arith_mean(speedups[s]) for s in setups))
        return t

    def render_all(self) -> str:
        """Every table/figure of the study as one text report."""
        return "\n\n".join(
            t.render() for t in (
                self.table1(), self.fig11_spills(), self.fig12_cost(),
                self.fig13_codesize(), self.fig14_speedup(),
            )
        )


def _lowend_workload(w: Workload, *, setups: Sequence[str], base_k: int,
                     reg_n: int, diff_n: int, config: LowEndConfig,
                     remap_restarts: int, use_ilp: bool,
                     profile: bool, seed: int,
                     pass_verifier=None) -> List[BenchmarkRow]:
    """One workload through every setup; the grid task of
    :func:`run_lowend_experiment`.

    ``w`` is a recipe the task builds its function from, so instruction
    uids are minted in the process that allocates them.  Every row is
    timed from an allocation ``run_setup`` has proven semantics-preserving.
    """
    fn = w.function()
    args = w.default_args
    if pass_verifier is not None:
        pass_verifier.prefix = w.name
    timing = LowEndTimingModel(config)
    # one interpretation of the input function serves every setup: the
    # profile weights below and, via trace derivation, each allocated
    # variant's dynamic trace (allocation preserves the block path and
    # data addresses — see repro.machine.reuse)
    recorded, freq = record_and_profile(fn, args, profile)
    rows: List[BenchmarkRow] = []
    for setup in setups:
        prog: AllocatedProgram = run_setup(
            fn, setup, base_k=base_k, reg_n=reg_n, diff_n=diff_n,
            remap_restarts=remap_restarts, use_ilp=use_ilp,
            freq=freq, pass_verifier=pass_verifier, remap_seed=seed,
        )
        result = interpret_or_derive(prog.final_fn, args, recorded)
        report = timing.time(result.columnar)
        rows.append(BenchmarkRow(
            benchmark=w.name,
            setup=setup,
            instructions=prog.n_instructions,
            spills=prog.n_spills,
            setlr=prog.n_setlr,
            cycles=report.cycles,
        ))
    return rows


def run_lowend_experiment(workloads: Sequence[Workload] = MIBENCH,
                          setups: Sequence[str] = PAPER_SETUPS,
                          base_k: int = 8, reg_n: int = 12, diff_n: int = 8,
                          config: LowEndConfig = LOWEND,
                          remap_restarts: int = 50,
                          use_ilp: bool = True,
                          profile: bool = True,
                          verify_each_pass: bool = False,
                          lint_mode: str = "strict",
                          jobs: int = 1,
                          seed: int = 0) -> LowEndExperiment:
    """Run the full Section 10.1 study.

    Each workload runs on its ``default_args``.  ``profile`` weights all
    frequency estimates with an interpreter profile of each benchmark
    (Section 4's "profile information could be incorporated"); disable it
    to reproduce the paper's static-estimation setting, whose
    per-benchmark results the authors themselves call irregular.
    Semantics are proven per allocation: ``run_setup`` raises
    :class:`~repro.diagnostics.LintError` on an allocation that does not
    compute what its input computes.

    ``verify_each_pass`` runs the static IR checker (:mod:`repro.lint`)
    between every pipeline stage of every benchmark; ``lint_mode`` is
    ``"strict"`` (raise at the offending pass) or ``"warn"`` (record and
    continue; inspect ``experiment.pass_verifier.summary()``).

    ``jobs`` distributes workloads over a process pool (``0`` = all
    cores); ``seed`` seeds the remapping restarts.  Row contents are
    identical for every job count.  ``verify_each_pass`` forces serial
    execution — the pass verifier accumulates one cross-benchmark lint
    trail, which has no meaningful parallel merge.
    """
    pass_verifier = None
    if verify_each_pass:
        from repro.lint import PassVerifier

        pass_verifier = PassVerifier(mode=lint_mode)
        jobs = 1
    task = partial(
        _lowend_workload, setups=tuple(setups), base_k=base_k,
        reg_n=reg_n, diff_n=diff_n, config=config,
        remap_restarts=remap_restarts, use_ilp=use_ilp, profile=profile,
        seed=seed,
        pass_verifier=pass_verifier)
    rows: List[BenchmarkRow] = []
    for workload_rows in parallel_map(task, list(workloads), jobs=jobs):
        rows.extend(workload_rows)
    return LowEndExperiment(rows, base_k, reg_n, diff_n, config,
                            pass_verifier=pass_verifier)
