"""The introduction's argument, measured: three ways to get more registers.

The paper's Section 1 motivates differential encoding against the obvious
alternative — just widen the register fields: "adding 1 bit to the register
field typically leads to an increase of 2 or more bits for each
instruction", which grows code size, I-cache pressure and energy (the
ARM/THUMB studies it cites).  This harness quantifies the three options on
our kernels and timing model:

* **direct-8** — the compact baseline ISA: 16-bit instructions, 3-bit
  fields, 8 registers, spills where pressure exceeds them.
* **direct-16** — widen every instruction to reach 16 registers directly.
  With three 4-bit fields a 16-bit format no longer fits; realistically the
  ISA jumps to 32-bit instructions (THUMB → ARM), doubling fetch bytes.
* **differential-12** — keep 16-bit instructions and 3-bit fields, address
  12 registers differentially (DiffN=8), pay ``set_last_reg`` repairs.

The differential point sits between the two direct options on registers
but keeps the compact fetch width — the paper's whole pitch.  Kernels this
small never stress an 8KB I-cache, so raw cycles understate the wide-ISA
cost; the *fetch traffic* column (bytes fetched per run, the I-cache energy
proxy behind the paper's cited 19% THUMB saving) is where the 32-bit
format pays.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

from repro.experiments.reporting import Table, arith_mean
from repro.machine.lowend import LowEndTimingModel
from repro.parallel import parallel_map
from repro.machine.reuse import interpret_or_derive, record_and_profile
from repro.machine.spec import LOWEND, LowEndConfig
from repro.regalloc.pipeline import run_setup
from repro.workloads.mibench import MIBENCH, Workload

__all__ = ["AlternativeRow", "AlternativesStudy", "run_alternatives_study"]


@dataclass
class AlternativeRow:
    benchmark: str
    option: str
    instructions: int
    code_bytes: float
    spills: int
    setlr: int
    cycles: int
    icache_misses: int
    fetch_bytes: int


@dataclass
class AlternativesStudy:
    rows: List[AlternativeRow]
    options: Sequence[str] = ("direct-8", "direct-16", "differential-12")

    def row(self, benchmark: str, option: str) -> AlternativeRow:
        """Look up one (benchmark, option) measurement."""
        for r in self.rows:
            if r.benchmark == benchmark and r.option == option:
                return r
        raise KeyError((benchmark, option))

    def benchmarks(self) -> List[str]:
        """Benchmark names in first-seen order."""
        seen: List[str] = []
        for r in self.rows:
            if r.benchmark not in seen:
                seen.append(r.benchmark)
        return seen

    def table(self) -> Table:
        """Render the suite-average comparison table."""
        t = Table(
            "Widening the fields vs differential encoding "
            "(averages over the suite)",
            ["option", "registers", "instr bytes", "code bytes",
             "spill %", "setlr %", "cycles vs direct-8 %",
             "fetch bytes vs direct-8 %"],
        )
        meta = {
            "direct-8": ("8", 2),
            "direct-16": ("16", 4),
            "differential-12": ("12", 2),
        }
        benches = self.benchmarks()
        for option in self.options:
            regs, ibytes = meta[option]
            code = arith_mean(self.row(b, option).code_bytes for b in benches)
            spill = 100 * arith_mean(
                self.row(b, option).spills / self.row(b, option).instructions
                for b in benches
            )
            setlr = 100 * arith_mean(
                self.row(b, option).setlr / self.row(b, option).instructions
                for b in benches
            )
            cycles = arith_mean(
                100.0 * (self.row(b, option).cycles
                         / self.row(b, "direct-8").cycles - 1.0)
                for b in benches
            )
            fetch = arith_mean(
                100.0 * (self.row(b, option).fetch_bytes
                         / self.row(b, "direct-8").fetch_bytes - 1.0)
                for b in benches
            )
            t.add_row(option, regs, ibytes, code, spill, setlr, cycles,
                      fetch)
        return t


def _alternatives_workload(payload) -> List[AlternativeRow]:
    """One workload through all three options; the grid task of
    :func:`run_alternatives_study`.

    Module-level and pure in its payload so it pickles into a process
    pool; the payload carries the workload, and the task builds its
    function.  All three options of one workload stay in one task
    because they share a recorded run — and because rows are
    per-workload, order across workloads (hence the job count) cannot
    change any number.
    """
    w, config, remap_restarts, profile = payload
    fn = w.function()
    args = w.default_args
    wide_config = replace(config, instr_bytes=4)
    # the three options share one recorded run: their traces differ
    # only statically, and the machine configs differ only in timing
    recorded, freq = record_and_profile(fn, args, profile)

    option_runs = {
        # (setup, base_k, reg_n, machine config, instr bytes)
        "direct-8": ("baseline", 8, 12, config),
        "direct-16": ("baseline", 16, 16, wide_config),
        "differential-12": ("select", 8, 12, config),
    }
    rows: List[AlternativeRow] = []
    for option, (setup, base_k, reg_n, mconfig) in option_runs.items():
        prog = run_setup(fn, setup, base_k=base_k, reg_n=reg_n,
                         diff_n=8, remap_restarts=remap_restarts,
                         freq=freq)
        result = interpret_or_derive(prog.final_fn, args, recorded)
        report = LowEndTimingModel(mconfig).time(result.columnar)
        rows.append(AlternativeRow(
            benchmark=w.name,
            option=option,
            instructions=prog.n_instructions,
            code_bytes=prog.n_instructions * mconfig.instr_bytes,
            spills=prog.n_spills,
            setlr=prog.n_setlr,
            cycles=report.cycles,
            icache_misses=report.icache_misses,
            fetch_bytes=report.instructions * mconfig.instr_bytes,
        ))
    return rows


def run_alternatives_study(workloads: Sequence[Workload] = MIBENCH,
                           config: LowEndConfig = LOWEND,
                           remap_restarts: int = 25,
                           profile: bool = True,
                           jobs: int = 1) -> AlternativesStudy:
    """Run the three-option comparison over the kernel suite.

    ``jobs`` distributes workloads over the shared process fleet
    (``0`` = all cores); results are identical for every job count.
    """
    payloads = [(w, config, remap_restarts, profile) for w in workloads]
    rows: List[AlternativeRow] = []
    for workload_rows in parallel_map(_alternatives_workload, payloads,
                                      jobs=jobs):
        rows.extend(workload_rows)
    return AlternativesStudy(rows)
