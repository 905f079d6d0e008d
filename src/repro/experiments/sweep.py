"""RegN sweep for the low-end configuration.

The paper fixes the low-end differential point at RegN=12, DiffN=8 and
sweeps registers only in the VLIW study (Table 2).  This harness fills the
gap: sweep RegN from the direct baseline (8) upward at fixed 3-bit fields
and watch the trade — spills fall as registers grow, repair cost rises as
the register circle gets sparser relative to DiffN, and the cycle count
bottoms out where the marginal spill is worth less than the marginal
``set_last_reg``.  It shows *why* 12 is a sensible choice for this machine
class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.reporting import Table, arith_mean
from repro.machine.lowend import LowEndTimingModel
from repro.machine.reuse import interpret_or_derive, record_and_profile
from repro.machine.spec import LOWEND, LowEndConfig
from repro.parallel import parallel_map
from repro.regalloc.pipeline import run_setup
from repro.workloads.mibench import MIBENCH, Workload

__all__ = ["SweepPoint", "RegNSweep", "run_regn_sweep"]


@dataclass
class SweepPoint:
    """Averages over the suite for one RegN."""

    reg_n: int
    spill_fraction: float
    setlr_fraction: float
    relative_cycles: float   # vs the RegN=8 direct baseline
    relative_energy: float


@dataclass
class RegNSweep:
    points: List[SweepPoint]
    diff_n: int

    def table(self) -> Table:
        """Render the sweep as a table."""
        t = Table(
            f"RegN sweep at DiffN={self.diff_n} (3-bit fields, "
            "differential select, suite averages)",
            ["RegN", "spill %", "setlr %", "cycles vs direct-8",
             "energy vs direct-8"],
        )
        for p in self.points:
            t.add_row(p.reg_n, 100 * p.spill_fraction,
                      100 * p.setlr_fraction, p.relative_cycles,
                      p.relative_energy)
        return t

    def best_reg_n(self) -> int:
        """The RegN with the lowest average relative cycle count."""
        return min(self.points, key=lambda p: p.relative_cycles).reg_n


def _sweep_workload(payload) -> List[Tuple[float, float, float, float]]:
    """One workload through every RegN point; the grid task of
    :func:`run_regn_sweep`.

    Module-level and pure in its payload so it pickles into a process
    pool; the payload carries the workload, and the task builds its
    function.  Normalisation is per-workload against its own first
    (baseline) point, so evaluation order across workloads — and hence
    the job count — cannot change any number.
    """
    w, reg_ns, diff_n, config, remap_restarts, remap_seed = payload
    timing = LowEndTimingModel(config)
    fn = w.function()
    args = w.default_args
    # one interpretation serves the profile and every sweep point's trace
    recorded, freq = record_and_profile(fn, args)
    base_cycles: Optional[float] = None
    base_energy: Optional[float] = None
    stats: List[Tuple[float, float, float, float]] = []
    for reg_n in reg_ns:
        setup = "baseline" if reg_n <= diff_n else "select"
        prog = run_setup(fn, setup, base_k=diff_n, reg_n=reg_n,
                         diff_n=diff_n, remap_restarts=remap_restarts,
                         freq=freq, remap_seed=remap_seed)
        result = interpret_or_derive(prog.final_fn, args, recorded)
        report = timing.time(result.columnar)
        if base_cycles is None:
            base_cycles = float(report.cycles)
            base_energy = report.energy
        stats.append((prog.spill_fraction, prog.setlr_fraction,
                      report.cycles / base_cycles,
                      report.energy / base_energy))
    return stats


def run_regn_sweep(workloads: Sequence[Workload] = MIBENCH,
                   reg_ns: Sequence[int] = (8, 10, 12, 14, 16),
                   diff_n: int = 8,
                   config: LowEndConfig = LOWEND,
                   remap_restarts: int = 20,
                   jobs: int = 1,
                   seed: int = 0) -> RegNSweep:
    """Sweep RegN over the kernel suite.

    ``reg_n == diff_n`` points run as plain direct encoding (the baseline);
    larger RegN uses the differential-select setup.  Relative cycles and
    energy are normalised against the *first* point, which must therefore
    be a direct baseline: ``reg_ns[0] <= diff_n`` is required, rather than
    silently normalising against whatever configuration happens to run
    first.

    ``jobs`` distributes workloads over a process pool (``0`` = all
    cores); ``seed`` seeds the remapping restarts.  Results are identical
    for every job count.
    """
    if not reg_ns:
        raise ValueError("reg_ns must be non-empty")
    if reg_ns[0] > diff_n:
        raise ValueError(
            f"reg_ns[0] must be a direct baseline point (reg_n <= diff_n): "
            f"relative cycles/energy are normalised against the first "
            f"point, got reg_ns[0]={reg_ns[0]} > diff_n={diff_n}"
        )
    payloads = [
        (w, tuple(reg_ns), diff_n, config, remap_restarts, seed)
        for w in workloads
    ]
    per_workload = parallel_map(_sweep_workload, payloads, jobs=jobs)

    per_point: Dict[int, Dict[str, List[float]]] = {
        r: {"spill": [], "setlr": [], "cycles": [], "energy": []}
        for r in reg_ns
    }
    for stats_list in per_workload:
        for reg_n, (spill, setlr, cycles, energy) in zip(reg_ns, stats_list):
            stats = per_point[reg_n]
            stats["spill"].append(spill)
            stats["setlr"].append(setlr)
            stats["cycles"].append(cycles)
            stats["energy"].append(energy)

    points = [
        SweepPoint(
            reg_n=r,
            spill_fraction=arith_mean(per_point[r]["spill"]),
            setlr_fraction=arith_mean(per_point[r]["setlr"]),
            relative_cycles=arith_mean(per_point[r]["cycles"]),
            relative_energy=arith_mean(per_point[r]["energy"]),
        )
        for r in reg_ns
    ]
    return RegNSweep(points, diff_n)
