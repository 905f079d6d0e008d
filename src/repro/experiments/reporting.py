"""Report rendering: table formatting and the one-command report.

The single entry point for everything report-shaped: the
:class:`Table`/mean helpers the experiment harnesses share, and
:func:`generate_report`, the combined reproduction report behind
``python -m repro report``.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence

__all__ = ["Table", "geo_mean", "arith_mean", "generate_report"]


def arith_mean(values: Iterable[float]) -> float:
    """Arithmetic mean (0.0 for an empty input)."""
    vals = list(values)
    return sum(vals) / len(vals) if vals else 0.0


def geo_mean(values: Iterable[float]) -> float:
    """Geometric mean over the positive values (0.0 if none)."""
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


class Table:
    """An aligned plain-text table with a title."""

    def __init__(self, title: str, headers: Sequence[str]) -> None:
        self.title = title
        self.headers = list(headers)
        self.rows: List[List[str]] = []

    def add_row(self, *cells: object) -> None:
        """Append one row; floats format to two decimals."""
        if len(cells) != len(self.headers):
            raise ValueError(
                f"expected {len(self.headers)} cells, got {len(cells)}"
            )
        self.rows.append([self._fmt(c) for c in cells])

    @staticmethod
    def _fmt(cell: object) -> str:
        if isinstance(cell, float):
            return f"{cell:.2f}"
        return str(cell)

    def render(self) -> str:
        """The table as aligned plain text."""
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))

        def line(cells: Sequence[str]) -> str:
            return "  ".join(c.rjust(w) for c, w in zip(cells, widths))

        sep = "-" * (sum(widths) + 2 * (len(widths) - 1))
        out = [self.title, sep, line(self.headers), sep]
        out.extend(line(r) for r in self.rows)
        out.append(sep)
        return "\n".join(out)

    def __str__(self) -> str:
        return self.render()


_PAPER_NOTES = """\
Paper reference values (PLDI 2005, Section 10):
  Figure 11 averages: baseline 10.44, remapping 6.87, select 6.84,
                      O-spill 7.32, coalesce 5.55 (% spills)
  Figure 12 averages: remapping 10.41, select 4.21, coalesce 3.04 (% cost)
  Figure 13:          remapping +7%, select <1%, O-spill -4%, coalesce -2%
  Figure 14 averages: remapping 4.5, select 9.7, O-spill 4.1,
                      coalesce 12.1 (% speedup)
  Table 2:            optimized loops >70%; all loops 10.23 -> 17.24,
                      saturating past RegN=48
  Table 3:            spills collapse by RegN=48; overall code growth
                      at most 1.13%, negative at RegN=40
Per DESIGN.md the comparison targets are qualitative shape, not absolute
numbers — see EXPERIMENTS.md for the per-figure discussion."""


def generate_report(workloads: Optional[Sequence] = None,
                    n_loops: int = 400,
                    remap_restarts: int = 50,
                    include_sweep: bool = True,
                    include_alternatives: bool = True,
                    jobs: int = 1) -> str:
    """Run all studies and return the combined report text.

    ``workloads`` defaults to the full MiBench suite.  ``jobs`` fans each
    study's workload/loop grid out over a process pool (``0`` = all
    cores); the report text is identical for any value.
    """
    # imported here because the study modules import this module's Table
    # at load time — a top-level import would be circular
    from repro.experiments.alternatives import run_alternatives_study
    from repro.experiments.lowend import run_lowend_experiment
    from repro.experiments.sweep import run_regn_sweep
    from repro.experiments.swp import run_swp_experiment
    from repro.workloads.mibench import MIBENCH

    if workloads is None:
        workloads = MIBENCH
    sections = []

    sections.append("# Differential Register Allocation — "
                    "reproduction report\n")
    sections.append(_PAPER_NOTES)

    lowend = run_lowend_experiment(workloads=workloads,
                                   remap_restarts=remap_restarts,
                                   jobs=jobs)
    sections.append("\n## Low-end study (Section 10.1)\n")
    sections.append(lowend.render_all())

    swp = run_swp_experiment(n_loops=n_loops, jobs=jobs)
    sections.append("\n## Software-pipelining study (Section 10.2)\n")
    sections.append(
        f"population: {len(swp.loops)} loops; "
        f"{100 * swp.fraction_needing_more_than_32:.1f}% need >32 registers"
    )
    sections.append(swp.render_all())

    if include_alternatives:
        study = run_alternatives_study(workloads=workloads,
                                       remap_restarts=remap_restarts // 2,
                                       jobs=jobs)
        sections.append("\n## Widening fields vs differential (Section 1)\n")
        sections.append(study.table().render())

    if include_sweep:
        sweep = run_regn_sweep(workloads=workloads,
                               remap_restarts=remap_restarts // 2,
                               jobs=jobs)
        sections.append("\n## RegN sweep (choosing the paper's 12)\n")
        sections.append(sweep.table().render())
        sections.append(f"cycle-optimal RegN: {sweep.best_reg_n()}")
    return "\n".join(sections)
