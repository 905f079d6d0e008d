"""The software-pipelining evaluation: Tables 2 and 3 (Section 10.2).

For every loop in the synthetic SPEC-like population, the kernel is modulo
scheduled and register-allocated under the baseline (``RegN = 32``, no
differential encoding) and under differential configurations
``RegN in {40, 48, 56, 64}`` with ``DiffN = 32``.  Only loops that spill at
32 registers are optimised — differential encoding is enabled selectively
(Section 8.2) and its ``set_last_reg`` repairs are promoted before the loop
(Section 8.1), so the in-loop cost is zero and the benefit is the lower II
from removed spill memory traffic.

* **Table 2** — percent speedup: optimised loops, all loops, and overall
  (loops are ~80% of execution per the paper; the rest is unaffected).
* **Table 3** — spills remaining in optimised loops and static code growth
  for optimised loops / all loops / all code (loop kernels are a
  configurable fraction of total code, default 30%).

Every kernel the study encodes is proven before its numbers count: its
permutation is a bijection, and its remapped access sequence decodes back
to the same registers with exactly the reported repairs in front.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.diagnostics import LintError
from repro.encoding.differential import decode_difference, encode_difference
from repro.experiments.reporting import Table
from repro.machine.spec import VLIW, VLIWConfig
from repro.swp.ddg import LoopDDG
from repro.swp.diffswp import (
    SwpEncodingReport,
    encode_kernel,
    kernel_access_sequence,
)
from repro.swp.modulo import ScheduleError
from repro.swp.rotalloc import KernelAllocation, allocate_kernel
from repro.workloads.spec_loops import LoopSpec, generate_loop_population

__all__ = ["LoopResult", "SwpExperiment", "run_swp_experiment"]

REG_NS = (32, 40, 48, 56, 64)


@dataclass
class LoopResult:
    """One loop under every register configuration."""

    name: str
    big: bool
    optimized: bool                      # needed > 32 registers
    cycles: Dict[int, int]               # reg_n -> execution cycles
    spills: Dict[int, int]               # reg_n -> spill mem ops in kernel
    code_ops: Dict[int, int]             # reg_n -> static ops incl. setlr
    setlr: Dict[int, int]                # reg_n -> promoted set_last_reg


@dataclass
class SwpExperiment:
    """Aggregated results with Table 2 / Table 3 renderers."""

    loops: List[LoopResult]
    reg_ns: Tuple[int, ...]
    diff_n: int
    loops_time_fraction: float = 0.8     # loops are >80% of execution (paper)
    loops_code_fraction: float = 0.3     # loop kernels' share of static code

    def optimized_loops(self) -> List[LoopResult]:
        """Loops that spilled at 32 registers — the differential targets."""
        return [l for l in self.loops if l.optimized]

    # ------------------------------------------------------------------
    # Table 2: speedups
    # ------------------------------------------------------------------

    def _speedup(self, loops: Sequence[LoopResult], reg_n: int) -> float:
        base = sum(l.cycles[32] for l in loops)
        new = sum(l.cycles[reg_n] for l in loops)
        return 100.0 * (base / new - 1.0) if new else 0.0

    def table2_speedup(self) -> Table:
        """Paper: optimised-loop speedup >70%; all-loops speedup 10.23%
        (RegN=40) to 17.24% (RegN=64), saturating past RegN=48."""
        t = Table(
            "Table 2: speedup (%), DiffN=32",
            ["RegN", "optimized loops", "all loops", "overall"],
        )
        opt = self.optimized_loops()
        for reg_n in self.reg_ns:
            if reg_n == 32:
                continue
            s_opt = self._speedup(opt, reg_n)
            s_all = self._speedup(self.loops, reg_n)
            # overall: loops are loops_time_fraction of total execution
            f = self.loops_time_fraction
            denom = (1 - f) + f / (1 + s_all / 100.0)
            s_overall = 100.0 * (1.0 / denom - 1.0)
            t.add_row(reg_n, s_opt, s_all, s_overall)
        return t

    # ------------------------------------------------------------------
    # Table 3: spills and code growth
    # ------------------------------------------------------------------

    def table3_code_growth(self) -> Table:
        """Paper: spills drop sharply by RegN=48; code growth ≤1.13%
        overall, negative at RegN=40."""
        t = Table(
            "Table 3: spills and code growth, DiffN=32",
            ["RegN", "spills (opt loops)", "growth opt loops %",
             "growth all loops %", "growth all code %"],
        )
        opt = self.optimized_loops()
        base_opt = sum(l.code_ops[32] for l in opt)
        base_all = sum(l.code_ops[32] for l in self.loops)
        for reg_n in self.reg_ns:
            spills = sum(l.spills[reg_n] for l in opt)
            new_opt = sum(l.code_ops[reg_n] for l in opt)
            new_all = sum(l.code_ops[reg_n] for l in self.loops)
            g_opt = 100.0 * (new_opt / base_opt - 1.0) if base_opt else 0.0
            g_all = 100.0 * (new_all / base_all - 1.0) if base_all else 0.0
            g_code = g_all * self.loops_code_fraction
            t.add_row(reg_n, spills, g_opt, g_all, g_code)
        return t

    def render_all(self) -> str:
        """Tables 2 and 3 as one text report."""
        return "\n\n".join(
            t.render() for t in (self.table2_speedup(), self.table3_code_growth())
        )

    @property
    def fraction_needing_more_than_32(self) -> float:
        n = len(self.loops)
        return len(self.optimized_loops()) / n if n else 0.0


def _prove_kernel(name: str, alloc: KernelAllocation, diff_n: int,
                  rep: SwpEncodingReport) -> None:
    """Raise :class:`~repro.diagnostics.LintError` unless ``rep`` encodes
    ``alloc``'s kernel at ``diff_n``.

    The remapped access sequence is replayed cyclically, as the loop runs
    it: the decode state entering the body is the last access.  A promoted
    ``set_last_reg`` at a repaired position sets ``last_reg`` to that
    field's register.  Every field must lie below DiffN and decode to the
    remapped register, and every reported repair must be one the replay
    needs.
    """
    reg_n = alloc.reg_n
    where = f"{name} at RegN={reg_n}"
    perm = rep.permutation
    if sorted(perm) != list(range(reg_n)):
        raise LintError(f"{where}: the kernel permutation is not a "
                        f"bijection of range({reg_n})")
    seq = [perm[r] for r in kernel_access_sequence(alloc)]
    repairs = set(rep.setlr_positions)
    needed = 0
    last = seq[-1] if seq else 0
    for i, n in enumerate(seq):
        if i in repairs:
            if encode_difference(n, last, reg_n) >= diff_n:
                needed += 1
            last = n
        diff = encode_difference(n, last, reg_n)
        if diff >= diff_n:
            raise LintError(f"{where}: kernel field {i} needs difference "
                            f"{diff}, not below DiffN={diff_n}, and no "
                            f"promoted set_last_reg repairs it")
        last = decode_difference(diff, last, reg_n)
        if last != n:
            raise LintError(f"{where}: kernel field {i} decodes to r{last}, "
                            f"not r{n}")
    if not needed == rep.n_setlr == rep.n_out_of_range_after:
        raise LintError(f"{where}: the replay needs {needed} promoted "
                        f"set_last_reg, the report lists {rep.n_setlr} and "
                        f"counts {rep.n_out_of_range_after}")


def _evaluate_loop(spec: LoopSpec, reg_ns: Sequence[int], diff_n: int,
                   machine: VLIWConfig, remap_restarts: int) -> Optional[LoopResult]:
    cycles: Dict[int, int] = {}
    spills: Dict[int, int] = {}
    code_ops: Dict[int, int] = {}
    setlr: Dict[int, int] = {}
    try:
        base = allocate_kernel(spec.ddg, 32, machine)
    except ScheduleError:
        return None
    optimized = base.n_spill_ops > 0

    for reg_n in reg_ns:
        if reg_n == 32 or not optimized:
            # differential encoding is selectively disabled: the loop keeps
            # its baseline schedule and pays nothing (Section 8.2)
            alloc = base
            rep = None
        else:
            try:
                alloc = allocate_kernel(spec.ddg, reg_n, machine)
            except ScheduleError:
                alloc = base
                rep = None
            else:
                rep = encode_kernel(alloc, diff_n, restarts=remap_restarts)
                _prove_kernel(spec.name, alloc, diff_n, rep)
        cycles[reg_n] = alloc.execution_cycles()
        spills[reg_n] = alloc.n_spill_ops
        n_setlr = rep.n_setlr + rep.enable_overhead if rep else 0
        setlr[reg_n] = n_setlr
        code_ops[reg_n] = alloc.code_size_ops() + n_setlr
    return LoopResult(
        name=spec.name, big=spec.big, optimized=optimized,
        cycles=cycles, spills=spills, code_ops=code_ops, setlr=setlr,
    )


def _evaluate_loop_batch(payload) -> List[Optional[LoopResult]]:
    """Worker task: evaluate a contiguous chunk of the loop population.

    Module-level and pure in its payload so it pickles into a process
    pool; loops are independent, so chunk boundaries cannot change any
    result.
    """
    specs, reg_ns, diff_n, machine, remap_restarts = payload
    return [
        _evaluate_loop(spec, reg_ns, diff_n, machine, remap_restarts)
        for spec in specs
    ]


def run_swp_experiment(n_loops: int = 1928, seed: int = 2005,
                       reg_ns: Sequence[int] = REG_NS, diff_n: int = 32,
                       machine: VLIWConfig = VLIW,
                       remap_restarts: int = 4,
                       population: Optional[Sequence[LoopSpec]] = None,
                       jobs: int = 1
                       ) -> SwpExperiment:
    """Run the Section 10.2 study over the loop population.

    ``n_loops`` defaults to the paper's 1928; tests and quick runs pass a
    smaller population.  Loops whose recurrences cannot be scheduled at all
    are dropped (none occur with the default generator parameters).

    ``jobs`` distributes contiguous chunks of the population over a
    process pool (``0`` = all cores); every loop is evaluated
    independently, so results are identical for every job count.
    """
    from repro.parallel import chunked, parallel_map, resolve_jobs

    specs = list(population) if population is not None else \
        generate_loop_population(n=n_loops, seed=seed)
    n_jobs = resolve_jobs(jobs)
    payloads = [
        (batch, tuple(reg_ns), diff_n, machine, remap_restarts)
        for batch in chunked(specs, n_jobs)
    ]
    loops: List[LoopResult] = [
        result
        for batch_results in parallel_map(_evaluate_loop_batch, payloads,
                                          jobs=n_jobs)
        for result in batch_results
        if result is not None
    ]
    return SwpExperiment(loops, tuple(reg_ns), diff_n)
