"""Interference-graph construction (Chaitin-style).

A node per register (virtual = live range, physical = precolored).  Edges are
added at each definition point between the defined register and everything
live immediately after it; the source of a ``mov`` is exempted so that moves
stay coalescible.  Move-related pairs are collected with static weights so
the coalescing allocators can prioritise them.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.analysis.liveness import LivenessInfo, compute_liveness
from repro.ir.function import Function
from repro.ir.instr import Instr, Reg

__all__ = ["InterferenceGraph", "build_interference"]


class InterferenceGraph:
    """Undirected interference graph with move annotations."""

    def __init__(self) -> None:
        self._adj: Dict[Reg, Set[Reg]] = {}
        self.moves: Dict[Tuple[Reg, Reg], float] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def add_node(self, r: Reg) -> None:
        """Ensure ``r`` exists as a node (idempotent)."""
        self._adj.setdefault(r, set())

    def add_edge(self, a: Reg, b: Reg) -> None:
        """Record that ``a`` and ``b`` interfere (self edges ignored)."""
        if a == b:
            return
        self.add_node(a)
        self.add_node(b)
        self._adj[a].add(b)
        self._adj[b].add(a)

    def add_move(self, dst: Reg, src: Reg, weight: float = 1.0) -> None:
        """Record a move between two registers (for coalescing)."""
        if dst == src:
            return
        key = (min(dst, src), max(dst, src))
        self.moves[key] = self.moves.get(key, 0.0) + weight
        self.add_node(dst)
        self.add_node(src)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def nodes(self) -> List[Reg]:
        """All nodes, sorted for determinism."""
        return sorted(self._adj)

    def __contains__(self, r: Reg) -> bool:
        return r in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def neighbors(self, r: Reg) -> Set[Reg]:
        """Registers interfering with ``r`` (live view, do not mutate)."""
        return self._adj[r]

    def degree(self, r: Reg) -> int:
        """Number of interference neighbours of ``r``."""
        return len(self._adj[r])

    def interferes(self, a: Reg, b: Reg) -> bool:
        """Whether ``a`` and ``b`` may not share a register."""
        return b in self._adj.get(a, ())

    # ------------------------------------------------------------------
    # transformation
    # ------------------------------------------------------------------

    def copy(self) -> "InterferenceGraph":
        """Deep copy (independent adjacency sets and move table)."""
        g = InterferenceGraph()
        g._adj = {r: set(ns) for r, ns in self._adj.items()}
        g.moves = dict(self.moves)
        return g

    def merge(self, keep: Reg, drop: Reg) -> None:
        """Coalesce ``drop`` into ``keep``: union neighbours, drop the node."""
        if keep == drop:
            return
        for n in list(self._adj.get(drop, ())):
            self._adj[n].discard(drop)
            self.add_edge(keep, n)
        self._adj.pop(drop, None)
        new_moves: Dict[Tuple[Reg, Reg], float] = {}
        for (a, b), w in self.moves.items():
            a2 = keep if a == drop else a
            b2 = keep if b == drop else b
            if a2 == b2:
                continue
            key = (min(a2, b2), max(a2, b2))
            new_moves[key] = new_moves.get(key, 0.0) + w
        self.moves = new_moves

    def check_coloring(self, coloring: Dict[Reg, int]) -> Optional[Tuple[Reg, Reg]]:
        """Return a violated edge, or ``None`` if the coloring is proper.

        Nodes are walked in sorted order, so the edge reported is the
        same whatever the sets' layout."""
        for a in self.nodes():
            ca = coloring.get(a)
            if ca is None:
                continue
            for b in self._adj[a]:
                cb = coloring.get(b)
                if cb is not None and ca == cb:
                    return (a, b)
        return None


def build_interference(fn: Function,
                       liveness: Optional[LivenessInfo] = None,
                       freq: Optional[Dict[str, float]] = None,
                       cls: str = "int") -> InterferenceGraph:
    """Build the interference graph for register class ``cls``.

    ``freq`` (block name -> execution frequency estimate) weights the
    move-coalescing candidates; defaults to weight 1 per move.

    Built graphs are memoized on the function's structural fingerprint
    plus ``(cls, freq)`` — the iterated allocator rebuilds the same graph
    after every spill round that changed nothing else, and sweeps repeat
    whole allocations.  Each call returns a private
    :meth:`InterferenceGraph.copy`, because callers mutate it: iterated
    coalescing adds edges (:meth:`~InterferenceGraph.add_edge`) and
    differential coalescing merges nodes
    (:meth:`~InterferenceGraph.merge`).  A caller-supplied ``liveness``
    other than the canonical memoized one bypasses the memo.
    """
    from repro.analysis.cache import (fingerprint_function, memoize_analysis,
                                      peek_analysis)

    fp = fingerprint_function(fn)
    if liveness is not None and liveness is not peek_analysis(("liveness",
                                                               fp)):
        return _build_interference_ref(fn, liveness, freq, cls)
    freq_key = None if freq is None else tuple(sorted(freq.items()))
    key = ("interference", cls, freq_key, fp)
    graph = memoize_analysis(
        key, lambda: _build_interference_ref(fn, None, freq, cls))
    return graph.copy()


def _build_interference_ref(fn: Function,
                            liveness: Optional[LivenessInfo],
                            freq: Optional[Dict[str, float]],
                            cls: str) -> InterferenceGraph:
    """Walk every instruction once, adding def-vs-live-out edges and
    weighted move candidates; ``liveness=None`` uses the memoized one."""
    if liveness is None:
        liveness = compute_liveness(fn)
    g = InterferenceGraph()
    for r in fn.registers():
        if r.cls == cls:
            g.add_node(r)
    for block in fn.blocks:
        w = freq.get(block.name, 1.0) if freq else 1.0
        for instr in block.instrs:
            live_after = liveness.instr_live_out[instr.uid]
            move_src = instr.srcs[0] if instr.is_move() else None
            for d in instr.defs():
                if d.cls != cls:
                    continue
                for l in live_after:
                    if l.cls != cls or l == d or l is None:
                        continue
                    if move_src is not None and l == move_src:
                        continue  # keep the move coalescible
                    g.add_edge(d, l)
            defs = [d for d in instr.defs() if d.cls == cls]
            for i in range(len(defs)):
                for j in range(i + 1, len(defs)):
                    g.add_edge(defs[i], defs[j])
            if instr.is_move() and instr.dst.cls == cls and instr.srcs[0].cls == cls:
                g.add_move(instr.dst, instr.srcs[0], w)
    return g
