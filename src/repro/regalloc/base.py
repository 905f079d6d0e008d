"""Shared allocator types and validity checking."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Mapping, Optional, Set

from repro.analysis.frequency import estimate_block_frequencies
from repro.analysis.interference import build_interference
from repro.analysis.liveness import compute_liveness
from repro.ir.function import Function
from repro.ir.instr import Reg

__all__ = [
    "AllocationError",
    "AllocationResult",
    "check_allocation",
    "spill_cost_estimates",
    "SPILL_OPS",
]

SPILL_OPS = frozenset({"ldslot", "stslot"})


class AllocationError(RuntimeError):
    """Raised when an allocator produces or detects an invalid state."""


@dataclass
class AllocationResult:
    """Outcome of register allocation on one function.

    ``fn`` holds physical registers only.  ``coloring`` maps the virtual
    registers of the (possibly spill-extended) input to register numbers.
    ``colored_fn`` retains that spill-extended virtual-register function,
    so the coloring stays checkable after the fact (lint rule L010,
    :func:`check_allocation`).
    """

    fn: Function
    coloring: Dict[Reg, int]
    spilled: FrozenSet[Reg] = frozenset()
    k: int = 0
    rounds: int = 1
    moves_removed: int = 0
    stats: Dict[str, float] = field(default_factory=dict)
    colored_fn: Optional[Function] = None

    @property
    def n_spill_instructions(self) -> int:
        """Static count of spill loads/stores in the allocated code."""
        return sum(1 for i in self.fn.instructions() if i.op in SPILL_OPS)

    @property
    def spill_fraction(self) -> float:
        """Spill instructions over all instructions (the Figure 11 metric)."""
        total = self.fn.num_instructions()
        return self.n_spill_instructions / total if total else 0.0

    def used_registers(self) -> Set[int]:
        """Distinct physical int register numbers in the allocated code."""
        return {
            r.id for r in self.fn.registers() if not r.virtual and r.cls == "int"
        }


def check_allocation(result: AllocationResult, k: Optional[int] = None,
                     colored_fn: Optional[Function] = None) -> None:
    """Validate an allocation.

    Checks that no virtual registers remain and every register number is
    within ``k``.  When ``colored_fn`` — the spill-extended virtual-register
    function the coloring was computed for — is supplied, additionally checks
    the coloring against that function's interference graph: no two
    interfering live ranges share a register number.

    Raises :class:`AllocationError` on the first violation.  Semantic
    preservation (same observable behaviour) is asserted separately by
    interpreter-equivalence tests, since distinct values sharing a register
    number collapse structurally in allocated code.
    """
    k = k if k is not None else result.k
    fn = result.fn
    for r in fn.registers():
        if r.virtual:
            raise AllocationError(f"{fn.name}: unallocated virtual register {r}")
        if r.cls == "int" and r.id >= k:
            raise AllocationError(
                f"{fn.name}: register r{r.id} exceeds k={k}"
            )
    if colored_fn is not None:
        clash = build_interference(colored_fn).check_coloring(
            result.coloring)
        if clash is not None:
            a, b = clash
            raise AllocationError(
                f"{fn.name}: interfering live ranges {a} and {b} "
                f"both assigned r{result.coloring[a]}"
            )


def spill_cost_estimates(fn: Function,
                         freq: Optional[Mapping[str, float]] = None) -> Dict[Reg, float]:
    """Chaitin-style spill costs: frequency-weighted def+use counts.

    Used both to pick spill candidates (cheapest cost/degree first) and as
    the optimisation weights of the optimal-spill ILP.
    """
    if freq is None:
        freq = estimate_block_frequencies(fn)
    costs: Dict[Reg, float] = {}
    for block in fn.blocks:
        w = freq.get(block.name, 1.0)
        for instr in block.instrs:
            for r in instr.uses():
                if r.virtual:
                    costs[r] = costs.get(r, 0.0) + w
            for r in instr.defs():
                if r.virtual:
                    costs[r] = costs.get(r, 0.0) + w
    return costs
