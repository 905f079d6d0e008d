"""Kernel register allocation for software-pipelined loops.

The Section 10.2 flow (Figure 10): schedule, then allocate registers to the
kernel's values; when the number of simultaneously live values (MaxLive,
including the cross-iteration copies that modulo variable expansion
renames) exceeds the architected registers, spill values and reschedule —
"the scheduling algorithm carefully spills variables when the number of used
registers exceeds the number of available registers".

Spilling reroutes a value through memory (store + loads), consuming memory
ports and usually raising the II — that is the performance cost differential
encoding removes by exposing more architected registers.

Register assignment uses modulo renaming: values sorted by birth time get
registers round-robin, with each value's MVE copies occupying consecutive
numbers.  The exact numbering matters only to the differential encoding
study (:mod:`repro.swp.diffswp`), which renumbers via differential remapping
anyway.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.machine.spec import VLIW, VLIWConfig
from repro.swp.ddg import LoopDDG
from repro.swp.modulo import ModuloSchedule, modulo_schedule

__all__ = ["KernelAllocation", "allocate_kernel"]


@dataclass
class KernelAllocation:
    """Result of scheduling + register allocation for one loop."""

    schedule: ModuloSchedule
    reg_n: int
    assignment: Dict[int, int]  # value (producer op id) -> register number
    spilled_values: Tuple[int, ...] = ()
    n_spill_ops: int = 0
    derated: bool = False   # see allocate_kernel's derated estimate
    ii_override: Optional[int] = None

    @property
    def ii(self) -> int:
        return self.ii_override if self.ii_override is not None \
            else self.schedule.ii

    @property
    def max_live(self) -> int:
        return self.schedule.max_live()

    def execution_cycles(self, trip_count: Optional[int] = None) -> int:
        """Loop execution time: fill plus II per steady-state iteration."""
        trips = trip_count if trip_count is not None \
            else self.schedule.ddg.trip_count
        return self.schedule.length + self.ii * max(0, trips - 1)

    def code_size_ops(self, rotating: bool = False) -> int:
        """Static size of the emitted loop.

        Default: compile-time renaming (modulo variable expansion) — the
        kernel is unrolled by the MVE factor, plus the prologue/epilogue
        fill and drain.  With ``rotating=True``, model an Itanium-style
        rotating register file instead (the hardware alternative the paper
        contrasts in Section 8.1): the renaming happens in hardware, so the
        kernel is a single copy of the body.
        """
        if rotating:
            kernel = len(self.schedule.ddg.ops)
        else:
            kernel = self.schedule.kernel_code_size()
        # prologue+epilogue fill/drain: (stages - 1) copies of the body
        wind = (self.schedule.stage_count - 1) * len(self.schedule.ddg.ops)
        extra = self.n_spill_ops if self.derated else 0
        return kernel + wind + extra


def _assign_registers(schedule: ModuloSchedule, reg_n: int) -> Dict[int, int]:
    """Round-robin modulo renaming over values sorted by birth time.

    A value living ``ceil(lifetime / II)`` IIs occupies that many
    consecutive register numbers (its MVE copies); the next value continues
    from there.  With ``MaxLive <= reg_n`` this wrap-around assignment is
    conflict-free for kernels in practice; the differential study only needs
    a *valid-shaped* numbering, and renumbers it anyway.
    """
    assignment: Dict[int, int] = {}
    cursor = 0
    lifetimes = schedule.value_lifetimes()
    for op_id, (start, end) in sorted(
            lifetimes.items(), key=lambda it: (it[1][0], it[0])):
        copies = max(1, math.ceil((end - start) / schedule.ii))
        assignment[op_id] = cursor % reg_n
        cursor += copies
    return assignment


def allocate_kernel(ddg: LoopDDG, reg_n: int,
                    machine: VLIWConfig = VLIW,
                    max_spills: int = 64) -> KernelAllocation:
    """Schedule ``ddg`` and fit its values into ``reg_n`` registers.

    Victims are chosen to relieve the hottest kernel slot, then the loop
    reschedules; when spilling stalls, the II is raised instead (both
    alternatives the paper discusses in Section 10.2).

    A few percent of extreme loops resist both (their reload bursts keep
    the memory ports saturated around the pressure peak), as does any
    loop once ``max_spills`` rounds are spent.  The allocator then returns
    a *derated* estimate built from the best schedule found: each register
    of residual overshoot costs 15% of the II — the midpoint of what
    converged heavy-spill cases pay — and three memory ops of code, with
    ``derated=True`` marking the approximation.
    """
    current = ddg
    next_id = max((op.id for op in ddg.ops), default=0) + 1
    spilled: List[int] = []
    n_spill_ops = 0
    forced_ii: Optional[int] = None
    ii_cap = 16 * ddg.mii(machine)
    best: Optional[ModuloSchedule] = None
    best_spill_ops = 0

    for _ in range(max_spills + 1):
        schedule = modulo_schedule(current, machine, min_ii=forced_ii)
        if best is None or schedule.max_live() < best.max_live():
            best = schedule
            best_spill_ops = n_spill_ops
        if schedule.max_live() <= reg_n:
            return KernelAllocation(
                schedule=schedule,
                reg_n=reg_n,
                assignment=_assign_registers(schedule, reg_n),
                spilled_values=tuple(spilled),
                n_spill_ops=n_spill_ops,
            )
        excess = schedule.max_live() - reg_n
        victims = _spill_victims(schedule, set(spilled),
                                 batch=max(1, excess // 2))
        if not victims:
            # Targeted spilling has run dry — the residual pressure comes
            # from reload bursts around port-congested regions.  Go to the
            # heavy-spill endgame: every remaining long value goes to
            # memory, the ports then force a larger II, and the abundant
            # port slots let reloads sit right before their consumers.
            victims = _spill_victims(schedule, set(spilled),
                                     batch=len(schedule.ddg.ops),
                                     any_slot=True)
        if not victims:
            # nothing left to spill: trade issue rate for pressure instead —
            # "we can increase the II to reduce register pressure" (§10.2)
            forced_ii = int(schedule.ii * 1.3) + 1
            if forced_ii > ii_cap:
                break
            continue
        for victim in victims:
            n_consumers = len(current.consumers(victim))
            current, next_id = current.with_spilled_value(victim, next_id)
            spilled.append(victim)
            n_spill_ops += 1 + n_consumers  # a store + loads for consumers

    overshoot = best.max_live() - reg_n
    return KernelAllocation(
        schedule=best,
        reg_n=reg_n,
        assignment=_assign_registers(best, reg_n),
        spilled_values=tuple(spilled),
        n_spill_ops=best_spill_ops + 3 * overshoot,
        derated=True,
        ii_override=int(best.ii * (1 + 0.15 * overshoot)) + 1,
    )


def _spill_victims(schedule: ModuloSchedule, already: set,
                   batch: int = 1, any_slot: bool = False) -> List[int]:
    """Choose values to spill: relieve the most pressure per memory op.

    Candidates must be live at the maximum-pressure modulo slot (anything
    else cannot lower MaxLive), must not be reloads of earlier spills, and
    must have a lifetime long enough that rerouting through memory actually
    frees the register for a while.  Among those, prefer long lifetimes and
    few consumers.  Returns up to ``batch`` victims.
    """
    ii = schedule.ii
    lifetimes = schedule.value_lifetimes()
    pressure = [0] * ii
    covers: Dict[int, set] = {}
    for op_id, (start, end) in lifetimes.items():
        span = end - start
        if span <= 0:
            continue
        full, rem = divmod(span, ii)
        slots = set(range(ii)) if full else set()
        for k in range(rem):
            slots.add((start + k) % ii)
        covers[op_id] = slots
        for c in slots:
            pressure[c] += 1
        if full > 1:
            for c in range(ii):
                pressure[c] += full - 1
    if not any(pressure):
        return []
    hot = max(range(ii), key=lambda c: pressure[c])

    def score(op_id: int) -> float:
        start, end = lifetimes[op_id]
        span = end - start
        n_consumers = max(1, len(schedule.ddg.consumers(op_id)))
        return span / n_consumers

    candidates = [
        op_id for op_id, slots in covers.items()
        if (any_slot or hot in slots)
        and op_id not in already
        and not schedule.ddg.op(op_id).from_spill
        and lifetimes[op_id][1] - lifetimes[op_id][0] > 2 * schedule.ddg.op(op_id).latency
    ]
    candidates.sort(key=lambda o: (-score(o), o))
    return candidates[:batch]
