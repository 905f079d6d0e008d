"""Differential select — approach 2 (paper Section 6, Figure 8).

A :class:`~repro.regalloc.iterated.ColorSelector` that, whenever the select
stage has more than one legal color for a node, picks the one minimising the
adjacency-graph cost against the neighbours colored so far.  Working on live
ranges rather than on the post-allocation register graph makes the problem
far less constrained than remapping — the reason the paper's select scheme
beats remapping in Figure 12.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.analysis.adjacency import AdjacencyGraph, build_adjacency, edge_satisfied
from repro.analysis.frequency import estimate_block_frequencies
from repro.ir.function import Function
from repro.ir.instr import Reg
from repro.regalloc.iterated import ColorSelector

__all__ = ["DifferentialSelector"]


class DifferentialSelector(ColorSelector):
    """Pick colors that minimise differential-encoding cost.

    Args:
        reg_n: RegN of the target encoding.
        diff_n: DiffN of the target encoding.
        order: access order used to build the adjacency graph.
    """

    def __init__(self, reg_n: int, diff_n: int,
                 order: str = "src_first") -> None:
        if diff_n > reg_n:
            raise ValueError("diff_n cannot exceed reg_n")
        self.reg_n = reg_n
        self.diff_n = diff_n
        self.order = order
        self._graph: Optional[AdjacencyGraph] = None
        self._assignment: Dict[Reg, int] = {}

    # ------------------------------------------------------------------
    # ColorSelector interface
    # ------------------------------------------------------------------

    def begin_round(self, fn: Function, members: Dict[Reg, Set[Reg]],
                    freq: Optional[Dict[str, float]] = None) -> None:
        """Rebuild the adjacency graph for this allocation round."""
        if freq is None:
            freq = estimate_block_frequencies(fn)
        self._graph = build_adjacency(fn, order=self.order, freq=freq)
        # physical registers present in the code are already "assigned"
        self._assignment = {
            r: r.id for r in self._graph.nodes() if not r.virtual
        }

    def on_color(self, members: Set[Reg], color: int) -> None:
        """Record the chosen number for every member of the node."""
        for m in members:
            self._assignment[m] = color

    def choose(self, node: Reg, members: Set[Reg], ok_colors: Set[int]) -> int:
        """Pick the legal color with minimal adjacency cost (Figure 8)."""
        if len(ok_colors) == 1 or self._graph is None:
            return min(ok_colors)
        best_color = None
        best_cost = None
        for c in sorted(ok_colors):
            cost = self._member_cost(members, c)
            if best_cost is None or cost < best_cost:
                best_cost, best_color = cost, c
        return best_color  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # cost of assigning `color` to every member of a coalesced node
    # ------------------------------------------------------------------

    def _member_cost(self, members: Set[Reg], color: int) -> float:
        graph = self._graph
        assert graph is not None
        total = 0.0
        for m in members:
            if m not in graph:
                continue
            for v, w in graph.out_edges(m).items():
                if v in members:
                    continue  # same future register: difference 0
                nv = self._assignment.get(v)
                if nv is not None and not edge_satisfied(
                        color, nv, self.reg_n, self.diff_n):
                    total += w
            for u, w in graph.in_edges(m).items():
                if u in members:
                    continue
                nu = self._assignment.get(u)
                if nu is not None and not edge_satisfied(
                        nu, color, self.reg_n, self.diff_n):
                    total += w
        return total
