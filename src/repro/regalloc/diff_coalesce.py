"""Differential coalesce — approach 3 (paper Section 7, Figure 9).

Runs on top of the optimal-spill substrate: after residence decisions and
live-range splitting, a best-first coalescing loop repeatedly picks the move
whose elimination yields the largest combined cost reduction, where cost
counts *both* move instructions and ``set_last_reg`` instructions (the paper
treats them as equally expensive).  Each candidate must keep the graph
conservatively colorable (Briggs test) — our stand-in for the paper's
"try, check colorability, undo" loop, which avoids re-running
rebuild&simplify per trial while rejecting exactly the coalescences that
could force new spills.  Coloring then uses differential select
(Section 7: "differential select is invoked during the select stage").

The differential gain of merging ``a`` and ``b`` is the adjacency-graph
weight between them: after the merge those adjacent accesses hit one
register and encode as difference 0, so their ``set_last_reg`` risk
disappears regardless of the final numbering.  Cross effects on other edges
depend on numbers not yet assigned and are left to differential select.

An optional pre-pass (:func:`split_at_joins`) inserts copies for values
flowing into join blocks where register pressure allows, recreating the
"large number of moves" the Appel-George splitting produces and giving the
coalescer real choices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.adjacency import AdjacencyGraph, build_adjacency
from repro.analysis.frequency import estimate_block_frequencies
from repro.analysis.interference import InterferenceGraph, build_interference
from repro.analysis.liveness import compute_liveness
from repro.ir.function import Function
from repro.ir.instr import Instr, Reg
from repro.regalloc.base import AllocationResult
from repro.regalloc.diff_select import DifferentialSelector
from repro.regalloc.iterated import iterated_allocate
from repro.regalloc.optimal_spill import apply_residence, decide_residence

__all__ = ["differential_coalesce_allocate", "split_at_joins", "coalesce_pass"]


def split_at_joins(fn: Function, k: int) -> Tuple[Function, int]:
    """Insert pred-end copies for values entering join blocks.

    For each block with two or more predecessors and each virtual register
    live into it, create a fresh name, copy into it at the end of every
    predecessor, and rename uses inside the join block up to the first
    redefinition.  Splits are skipped when they would push register pressure
    past ``k`` at any affected point.  Returns ``(new_fn, n_splits)``.
    """
    fn = fn.copy()
    next_vreg = fn.max_vreg_id() + 1
    n_splits = 0
    _, preds = fn.cfg()
    for b in list(fn.blocks):
        ps = preds[b.name]
        if len(ps) < 2:
            continue
        liveness = compute_liveness(fn)
        live_in = sorted(
            r for r in liveness.live_in[b.name] if r.virtual and r.cls == "int"
        )
        pressure_in = len(liveness.live_in[b.name])
        for v in live_in:
            # headroom: the new name is live through the start of the block
            # and briefly at every predecessor end
            if pressure_in + 1 > k:
                break
            pred_ok = all(
                len(liveness.live_out[p]) + 1 <= k for p in ps
            )
            if not pred_ok:
                continue
            # splitting a value that stays live past this block (and is not
            # redefined in it) makes copy and original coexist throughout —
            # never coalescible, pure bloat
            redefined = any(v in i.defs() for i in b.instrs)
            if v in liveness.live_out[b.name] and not redefined:
                continue
            fresh = Reg(next_vreg, virtual=True, cls="int")
            next_vreg += 1
            for p in ps:
                pblock = fn.block(p)
                copy = Instr("mov", dst=fresh, srcs=(v,))
                if pblock.terminator() is None:
                    pblock.instrs.append(copy)
                else:
                    pblock.instrs.insert(len(pblock.instrs) - 1, copy)
            # rename uses of v in b until its first redefinition
            for i, instr in enumerate(b.instrs):
                if v in instr.uses():
                    b.instrs[i] = instr.rewrite({v: fresh})
                    # rewrite() also renames a def of v; restore it
                    if v in instr.defs():
                        restored = b.instrs[i]
                        restored.dst = v if restored.dst == fresh else restored.dst
                if v in instr.defs():
                    break
            n_splits += 1
            pressure_in += 1
    fn.validate()
    return fn, n_splits


@dataclass
class CoalesceStats:
    committed: int = 0
    rejected_interfere: int = 0
    rejected_colorability: int = 0
    move_weight_removed: float = 0.0
    diff_weight_removed: float = 0.0


def _briggs_ok(graph: InterferenceGraph, a: Reg, b: Reg, k: int) -> bool:
    """Conservative colorability test for merging ``a`` and ``b``."""
    merged_neighbors = graph.neighbors(a) | graph.neighbors(b)
    merged_neighbors.discard(a)
    merged_neighbors.discard(b)
    significant = 0
    for n in merged_neighbors:
        degree = len(graph.neighbors(n) | {a, b}) - 1  # after the merge
        if not n.virtual or degree >= k:
            significant += 1
    return significant < k


def coalesce_pass(fn: Function, k: int, reg_n: int, diff_n: int,
                  order: str = "src_first",
                  freq: Optional[Dict[str, float]] = None
                  ) -> Tuple[Function, Dict[Reg, Reg], CoalesceStats]:
    """Best-first cost-driven coalescing (the Figure 9 loop).

    Returns the rewritten function, the alias map applied, and statistics.
    """
    if freq is None:
        freq = estimate_block_frequencies(fn)
    graph = build_interference(fn, freq=freq)
    adj = build_adjacency(fn, order=order, freq=freq)
    alias: Dict[Reg, Reg] = {}
    stats = CoalesceStats()
    rejected: Set[Tuple[Reg, Reg]] = set()

    while True:
        best: Optional[Tuple[Reg, Reg]] = None
        best_gain = 0.0
        for (a, b), w in sorted(graph.moves.items()):
            if (a, b) in rejected:
                continue
            if a == b or graph.interferes(a, b):
                continue
            # gain: the move instructions removed plus the adjacency weight
            # between the pair that becomes difference-0 after merging
            gain = w + adj.weight(a, b) + adj.weight(b, a)
            if gain > best_gain or (gain == best_gain and best is None):
                if not _briggs_ok(graph, a, b, k):
                    rejected.add((a, b))
                    stats.rejected_colorability += 1
                    continue
                best, best_gain = (a, b), gain
        if best is None:
            break
        a, b = best
        # keep the physical register if one is precolored
        if not a.virtual:
            keep, drop = a, b
        elif not b.virtual:
            keep, drop = b, a
        else:
            keep, drop = min(a, b), max(a, b)
        stats.committed += 1
        stats.move_weight_removed += graph.moves.get((min(a, b), max(a, b)), 0.0)
        stats.diff_weight_removed += adj.weight(a, b) + adj.weight(b, a)
        graph.merge(keep, drop)
        adj.merge(keep, drop)
        alias[drop] = keep
        rejected = set()  # degrees changed; retry everything

    # resolve alias chains and rewrite
    def resolve(r: Reg) -> Reg:
        seen = []
        while r in alias:
            seen.append(r)
            r = alias[r]
        for s in seen:
            alias[s] = r
        return r

    mapping = {r: resolve(r) for r in list(alias)}
    out = fn.rewrite_registers(mapping)
    for block in out.blocks:
        block.instrs = [
            i for i in block.instrs
            if not (i.is_move() and i.dst == i.srcs[0])
        ]
    return out, mapping, stats


def differential_coalesce_allocate(fn: Function, k: int, diff_n: int,
                                   order: str = "src_first",
                                   use_ilp: bool = True,
                                   join_splitting: bool = False,
                                   has_permi: bool = False,
                                   freq: Optional[Dict[str, float]] = None
                                   ) -> AllocationResult:
    """The full approach-3 pipeline (paper Section 7).

    ``k`` doubles as RegN — the allocator colors with all differentially
    addressable registers; ``diff_n`` shapes the cost model.  ``freq``
    overrides the static block-frequency estimate throughout.

    The residence/join moves that survive coloring are re-emitted
    minimally by :func:`repro.regalloc.moves.resolve_move_runs`;
    ``has_permi`` lets it fold register cycles into one ``permi``
    permutation instruction.
    """
    from repro.regalloc.moves import resolve_move_runs

    plan = decide_residence(fn, k, freq=freq, use_ilp=use_ilp)
    split_fn, _ = apply_residence(fn, plan)
    n_splits = 0
    if join_splitting:
        split_fn, n_splits = split_at_joins(split_fn, k)
    coalesced_fn, mapping, stats = coalesce_pass(
        split_fn, k, k, diff_n, order, freq=dict(freq) if freq else None
    )
    selector = DifferentialSelector(k, diff_n, order=order)
    result = iterated_allocate(coalesced_fn, k, selector=selector,
                               freq=dict(freq) if freq else None)
    move_stats = resolve_move_runs(result.fn, k, has_permi=has_permi)
    result.stats.update(move_stats.as_stats())
    result.stats.update({
        "coalesce_committed": float(stats.committed),
        "coalesce_move_weight": stats.move_weight_removed,
        "coalesce_diff_weight": stats.diff_weight_removed,
        "join_splits": float(n_splits),
        "ospill_objective": plan.objective,
        "ospill_solver": 1.0 if plan.solver == "ilp" else 0.0,
    })
    return result
