"""Register allocators and the paper's three differential schemes.

Allocators
----------

* :mod:`repro.regalloc.iterated` — George-Appel iterated register coalescing,
  the paper's *baseline* (Section 10.1 replaces gcc's allocator with it).
* :mod:`repro.regalloc.optimal_spill` — Appel-George optimal spilling
  (*O-spill*), ILP-based residence decisions with live-range splitting.
* :mod:`repro.regalloc.linearscan` — Poletto-Sarkar linear scan, the
  non-coloring allocator behind Section 5's claim that remapping follows
  any allocator.

Differential schemes
--------------------

* :mod:`repro.regalloc.remap` — approach 1, post-pass register renumbering
  (Section 5).
* :mod:`repro.regalloc.diff_select` — approach 2, differential color choice
  in the select stage (Section 6).
* :mod:`repro.regalloc.diff_coalesce` — approach 3, cost-driven coalescing on
  top of optimal spilling (Section 7).

:mod:`repro.regalloc.pipeline` wires allocation, remapping and encoding into
the five experimental setups of Section 10.1, one table row each, plus a
sixth row for :mod:`repro.regalloc.ssa_spill`, the SSA-based
spill-everywhere allocator (``docs/allocators.md``).  Both ILPs, optimal
spilling's residence model and the exact remap model, are solved through
:mod:`repro.regalloc.highs`.
"""

from repro.regalloc.base import (
    AllocationError,
    AllocationResult,
    check_allocation,
    spill_cost_estimates,
)
from repro.regalloc.spill import insert_spill_code
from repro.regalloc.iterated import iterated_allocate
from repro.regalloc.linearscan import linear_scan_allocate
from repro.regalloc.remap import RemapResult, differential_remap
from repro.regalloc.diff_select import DifferentialSelector
from repro.regalloc.optimal_spill import optimal_spill_allocate
from repro.regalloc.diff_coalesce import differential_coalesce_allocate
from repro.regalloc.pipeline import (AllocatedProgram, run_setup, SETUPS,
                                     PAPER_SETUPS)
from repro.regalloc.ssa_spill import ssa_spill_allocate
from repro.regalloc.callconv import (
    CallingConvention,
    check_convention,
    remap_with_convention,
)

__all__ = [
    "CallingConvention",
    "check_convention",
    "remap_with_convention",
    "AllocationError",
    "AllocationResult",
    "check_allocation",
    "spill_cost_estimates",
    "insert_spill_code",
    "iterated_allocate",
    "linear_scan_allocate",
    "RemapResult",
    "differential_remap",
    "DifferentialSelector",
    "optimal_spill_allocate",
    "differential_coalesce_allocate",
    "AllocatedProgram",
    "run_setup",
    "SETUPS",
    "PAPER_SETUPS",
    "ssa_spill_allocate",
]
