"""SSA-based spill-everywhere allocation (decoupled spill then color).

Bouchez, Darte and Rastello ("On the complexity of spill everywhere
under SSA form", PAPERS.md) observe that under SSA the spilling and
coloring problems decouple: lower register pressure to the budget
first, then color.  This backend follows that shape on top of the
repo's SSA machinery:

1. **SSA round trip** — :func:`repro.analysis.ssa.construct_ssa` then
   :func:`~repro.analysis.ssa.destruct_ssa`.  Construction splits every
   variable into single-definition values (live ranges shrink to their
   minimal extents); destruction lowers the phis through the
   parallel-move decomposition, so the function this backend colors is
   an ordinary phi-free IR function and the emitted
   :class:`~repro.regalloc.base.AllocationResult` is checkable by L010
   and :func:`~repro.regalloc.base.check_allocation` unchanged.
2. **Furthest-next-use spill everywhere** — while ``MaxLive`` exceeds
   the budget, find the first program point over pressure and evict the
   live value whose next use (in layout order) is furthest away —
   Belady's rule, the heuristic the paper analyses — spilling it
   *everywhere*: a store after every definition, a reload before every
   use (:func:`~repro.regalloc.spill.insert_spill_code`).
3. **Simplify/select coloring** — push values of degree below ``k``
   (lowest id first), else optimistically the highest-degree one
   (Briggs), then pop the stack assigning the lowest free register
   (:func:`_greedy_color`).  ``MaxLive <= k`` no longer guarantees
   colorability once destruction has left SSA form, so a failed round
   spills the uncolorable values and retries, exactly like the iterated
   allocator's loop.  Spill temporaries and values nothing reads are
   never spilled; when only those fail, their most-constrained real
   neighbor is spilled instead.

The backend is deliberately structurally unlike the iterated/briggs
allocator — no coalescing, no interference-driven spill costs — which
is the point: it produces genuinely different allocation shapes for the
differential encoder and fuzz oracles to chew on.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.interference import build_interference
from repro.analysis.liveness import compute_liveness
from repro.analysis.ssa import construct_ssa, destruct_ssa
from repro.ir.function import Function
from repro.ir.instr import Instr, Reg
from repro.regalloc.base import AllocationError, AllocationResult
from repro.regalloc.spill import (SpillSlotAllocator, first_free_slot,
                                  insert_spill_code)

__all__ = ["ssa_spill_allocate"]

_MAX_ROUNDS = 64


def _pressure_point(fn: Function, k: int,
                    cls: str) -> Optional[Tuple[int, Set[Reg]]]:
    """First instruction index where ``cls`` pressure exceeds ``k``.

    Returns ``(layout_index, live_set_at_that_point)`` or ``None`` when
    every point is within budget.  Pressure is checked on both sides of
    each instruction, mirroring ``LivenessInfo.max_pressure``.
    """
    liveness = compute_liveness(fn)
    idx = 0
    for block in fn.blocks:
        for instr in block.instrs:
            for live in (liveness.instr_live_in[instr.uid],
                         liveness.instr_live_out[instr.uid]):
                at = {r for r in live if r.cls == cls}
                if len(at) > k:
                    return idx, at
            idx += 1
    return None


def _furthest_use_victim(fn: Function, point: int, live: Set[Reg],
                         no_spill: Set[Reg]) -> Optional[Reg]:
    """Belady's choice: the live value whose next use is furthest away.

    Values touched by the instruction at ``point`` are excluded —
    spilling them re-materialises a reload at the very same point, so
    pressure there would not drop.  Ties break toward the smaller
    register id for determinism.
    """
    positions: Dict[Reg, List[int]] = {}
    here: Set[Reg] = set()
    for idx, instr in enumerate(fn.instructions()):
        if idx == point:
            here = set(instr.uses()) | set(instr.defs())
        for r in instr.uses():
            positions.setdefault(r, []).append(idx)

    best: Optional[Reg] = None
    best_dist = -1
    for r in sorted(live):
        if not r.virtual or r in no_spill or r in here:
            continue
        later = [p for p in positions.get(r, ()) if p > point]
        dist = min(later) - point if later else 1 << 30
        if dist > best_dist:
            best, best_dist = r, dist
    return best


def _greedy_color(
    fn: Function, k: int, cls: str,
) -> Tuple[Dict[Reg, int], List[Reg], "object"]:
    """Simplify/select coloring with Briggs optimism.

    Values of degree below ``k`` are removed first (they always find a
    color); when only high-degree values remain, the highest-degree one
    is removed optimistically.  Selection pops the stack assigning the
    lowest free color.  Returns ``(coloring, failed, graph)`` — the
    physical registers are pre-colored with their own ids and included
    in the map; ``failed`` are optimistic values that found no color.
    """
    # every register of ``cls`` is a node, unused parameters included
    graph = build_interference(fn, cls=cls)
    remaining = [r for r in graph.nodes() if r.virtual]
    # degree among the physical and not-yet-pushed virtual nodes
    degree = {r: graph.degree(r) for r in remaining}

    stack: List[Reg] = []
    while remaining:
        pick = next((r for r in remaining if degree[r] < k), None)
        if pick is None:  # Briggs: push the worst node and hope
            pick = max(remaining, key=degree.__getitem__)
        stack.append(pick)
        remaining.remove(pick)
        del degree[pick]
        for n in graph.neighbors(pick):
            if n in degree:
                degree[n] -= 1

    coloring: Dict[Reg, int] = {
        r: r.id for r in graph.nodes() if not r.virtual
    }
    failed: List[Reg] = []
    for r in reversed(stack):
        used = {coloring[n] for n in graph.neighbors(r) if n in coloring}
        color = next((c for c in range(k) if c not in used), None)
        if color is None:
            failed.append(r)
        else:
            coloring[r] = color
    return coloring, failed, graph


def _unread(fn: Function, graph) -> Set[Reg]:
    """The graph's virtual values that no instruction of ``fn`` reads."""
    read = {r for instr in fn.instructions() for r in instr.uses()}
    return {r for r in graph.nodes() if r.virtual and r not in read}


def _rewrite_physical(fn: Function, coloring: Dict[Reg, int],
                      cls: str) -> Tuple[Function, int]:
    """Substitute physical registers and drop now-trivial self-moves."""
    mapping = {
        r: Reg(c, virtual=False, cls=r.cls)
        for r, c in coloring.items() if r.virtual and r.cls == cls
    }
    out = fn.rewrite_registers(mapping)
    removed = 0
    for block in out.blocks:
        new_instrs: List[Instr] = []
        for instr in block.instrs:
            if (instr.op == "mov" and instr.srcs
                    and instr.dst == instr.srcs[0]):
                removed += 1
                continue
            new_instrs.append(instr)
        block.instrs = new_instrs
    return out, removed


def ssa_spill_allocate(fn: Function, k: int,
                       freq: Optional[Dict[str, float]] = None,
                       cls: str = "int") -> AllocationResult:
    """Allocate ``fn`` with the SSA spill-everywhere scheme.

    ``freq`` is accepted for signature parity with the other backends;
    Belady's rule is frequency-oblivious by design.  Raises
    :class:`AllocationError` if spilling cannot reach a colorable state
    within the round budget.
    """
    ssa = construct_ssa(fn)
    current = destruct_ssa(ssa)

    slots = SpillSlotAllocator(first_free_slot(current))
    next_vreg = current.max_vreg_id() + 1
    no_spill: Set[Reg] = set()
    spilled: Set[Reg] = set()

    # phase 1: Belady pressure lowering
    rounds = 0
    while True:
        over = _pressure_point(current, k, cls)
        if over is None:
            break
        point, live = over
        victim = _furthest_use_victim(current, point, live, no_spill)
        if victim is None:
            break  # only untouchable values left; leave it to phase 2
        current, next_vreg, temps = insert_spill_code(
            current, {victim}, slots, next_vreg)
        no_spill |= temps
        spilled.add(victim)
        rounds += 1
        if rounds > _MAX_ROUNDS * 8:
            raise AllocationError(
                f"{fn.name}: pressure lowering did not converge")

    # phase 2: greedy coloring with spill-on-failure retry
    for round_no in range(1, _MAX_ROUNDS + 1):
        coloring, failed, graph = _greedy_color(current, k, cls)
        if not failed:
            allocated, removed = _rewrite_physical(current, coloring, cls)
            result = AllocationResult(
                fn=allocated,
                coloring=coloring,
                spilled=frozenset(spilled),
                k=k,
                rounds=round_no,
                moves_removed=removed,
                stats={
                    "ssa_phis": float(ssa.n_phis),
                    "ssa_versions": float(sum(ssa.versions.values())),
                    "ssa_split_blocks": float(
                        len(current.blocks) - len(ssa.fn.blocks)),
                    "spilled_everywhere": float(len(spilled)),
                    "spill_slots": float(slots.n_slots),
                    "self_moves_removed": float(removed),
                },
                colored_fn=current,
            )
            result.stats["colored_fn_instrs"] = float(
                current.num_instructions())
            return result
        # spilling a value nothing reads (a dead call def) cannot help: its
        # store temporary needs a register at the same def.  Belady never
        # sees one, because such a value is in no live set.
        unspillable = no_spill | _unread(current, graph)
        candidates = {r for r in failed if r not in unspillable}
        if not candidates:
            # every failed value is a reload temporary whose range is
            # already minimal, or unread — spilling it would only clone it,
            # so spill its most-constrained real neighbor instead
            for f in failed:
                real = [n for n in graph.neighbors(f)
                        if n.virtual and n.cls == cls
                        and n not in unspillable]
                if real:
                    candidates.add(max(
                        sorted(real),
                        key=lambda n: len(graph.neighbors(n))))
        if not candidates:
            raise AllocationError(
                f"{fn.name}: only unspillable temporaries left "
                f"uncolored at k={k}")
        current, next_vreg, temps = insert_spill_code(
            current, candidates, slots, next_vreg)
        no_spill |= temps
        spilled.update(candidates)

    raise AllocationError(
        f"{fn.name}: no {k}-coloring after {_MAX_ROUNDS} spill rounds")
