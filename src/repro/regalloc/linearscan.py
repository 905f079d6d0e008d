"""Linear-scan register allocation (Poletto & Sarkar, TOPLAS 1999).

An allocator family beside graph coloring and optimal spilling —
included because Section 5 stresses that differential remapping "can follow
any register allocator": the ablation bench remaps the output of both
linear scan and iterated coalescing and the claim holds for each.

Live intervals are computed from the real liveness sets over the layout
linearisation (so loop-carried values span their whole loop, not just
def→use), then scanned in start order with the classic
furthest-end-spills heuristic.  Spilling rewrites with
:func:`repro.regalloc.spill.insert_spill_code` and rescans, mirroring the
other allocators' iteration structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.analysis.liveness import compute_liveness
from repro.ir.function import Function
from repro.ir.instr import Reg
from repro.regalloc.base import AllocationError, AllocationResult
from repro.regalloc.iterated import _rewrite_with_colors
from repro.regalloc.spill import (
    SpillSlotAllocator,
    first_free_slot,
    insert_spill_code,
)

__all__ = ["linear_scan_allocate", "live_intervals"]


@dataclass(frozen=True)
class Interval:
    """One virtual register's live interval over the linearised function."""

    reg: Reg
    start: int
    end: int  # inclusive


def live_intervals(fn: Function, cls: str = "int") -> List[Interval]:
    """Conservative live intervals from instruction-level liveness.

    An interval covers every linear position where the register is live —
    for a loop-carried value that is the entire loop, which is what makes
    linear scan correct (if pessimistic) on cyclic control flow.
    """
    liveness = compute_liveness(fn)
    first: Dict[Reg, int] = {}
    last: Dict[Reg, int] = {}

    def touch(r: Reg, i: int) -> None:
        if r.virtual and r.cls == cls:
            first.setdefault(r, i)
            last[r] = i

    for i, instr in enumerate(fn.instructions()):
        for r in liveness.instr_live_in[instr.uid]:
            touch(r, i)
        for r in liveness.instr_live_out[instr.uid]:
            touch(r, i)
        for r in instr.uses() + instr.defs():
            touch(r, i)
    return sorted(
        (Interval(r, first[r], last[r]) for r in first),
        key=lambda iv: (iv.start, iv.end, iv.reg),
    )


def _scan(intervals: List[Interval], k: int,
          no_spill: Set[Reg]) -> Tuple[Dict[Reg, int], Set[Reg]]:
    """One linear-scan pass; returns (coloring, spilled)."""
    color: Dict[Reg, int] = {}
    spilled: Set[Reg] = set()
    free = list(range(k - 1, -1, -1))  # pop() yields the lowest number
    active: List[Interval] = []        # sorted by end

    for iv in intervals:
        # expire intervals that ended before this one starts
        still_active = []
        for a in active:
            if a.end < iv.start:
                free.append(color[a.reg])
                free.sort(reverse=True)
            else:
                still_active.append(a)
        active = still_active

        if free:
            color[iv.reg] = free.pop()
            active.append(iv)
            active.sort(key=lambda a: a.end)
            continue

        # no register: spill the furthest-ending spillable interval.
        # reload/store temporaries (no_spill) must always receive a
        # register — their live ranges cannot shrink further, so spilling
        # them again would loop forever.
        candidates = [a for a in active if a.reg not in no_spill]
        victim = candidates[-1] if candidates else None
        if iv.reg in no_spill:
            if victim is None:
                raise AllocationError(
                    "linear scan: every active interval is an unspillable "
                    f"temporary at {iv.reg} (k too small)"
                )
            spilled.add(victim.reg)
            color[iv.reg] = color.pop(victim.reg)
            active.remove(victim)
            active.append(iv)
            active.sort(key=lambda a: a.end)
        elif victim is not None and victim.end > iv.end:
            spilled.add(victim.reg)
            color[iv.reg] = color.pop(victim.reg)
            active.remove(victim)
            active.append(iv)
            active.sort(key=lambda a: a.end)
        else:
            spilled.add(iv.reg)
    return color, spilled


def linear_scan_allocate(fn: Function, k: int,
                         max_rounds: int = 64) -> AllocationResult:
    """Allocate with linear scan; spill rounds iterate like the others."""
    if k < 1:
        raise ValueError("k must be positive")
    current = fn
    slots = SpillSlotAllocator(first_free_slot(fn))
    next_vreg = fn.max_vreg_id() + 1
    no_spill: Set[Reg] = set()
    all_spilled: Set[Reg] = set()

    for round_no in range(1, max_rounds + 1):
        intervals = live_intervals(current)
        color, spilled = _scan(intervals, k, no_spill)
        if not spilled:
            allocated, removed = _rewrite_with_colors(current, color)
            return AllocationResult(
                fn=allocated,
                coloring=color,
                spilled=frozenset(all_spilled),
                k=k,
                rounds=round_no,
                moves_removed=removed,
                colored_fn=current,
            )
        all_spilled |= spilled
        current, next_vreg, temps = insert_spill_code(
            current, spilled, slots, next_vreg
        )
        no_spill |= temps
    raise AllocationError(
        f"{fn.name}: linear scan found no fit with k={k} "
        f"after {max_rounds} rounds"
    )
