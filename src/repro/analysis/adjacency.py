"""The adjacency graph (paper Definition 2) and differential cost model.

A directed weighted graph over live ranges (virtual registers) or, post
allocation, over physical registers.  An edge ``vi -> vj`` with weight ``w``
records that an access to ``vj`` immediately follows an access to ``vi`` in
the access sequence ``w`` times (weighted by estimated block frequency when
available).

Given a register-number assignment, an edge is *satisfied* when condition (3)
of the paper holds::

    0 <= (reg_no(vj) - reg_no(vi)) mod RegN < DiffN

Unsatisfied edges each cost their weight — one ``set_last_reg`` per dynamic
occurrence.  All three differential allocation schemes minimise this cost.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.encoding.access_order import access_fields, block_access_sequence
from repro.ir.function import Function
from repro.ir.instr import Reg

__all__ = ["AdjacencyGraph", "build_adjacency", "edge_satisfied"]


def edge_satisfied(n_from: int, n_to: int, reg_n: int, diff_n: int) -> bool:
    """Paper condition (3) for one adjacent access pair."""
    return (n_to - n_from) % reg_n < diff_n


class AdjacencyGraph:
    """Directed weighted multigraph collapsed to summed edge weights."""

    def __init__(self) -> None:
        self._out: Dict[Reg, Dict[Reg, float]] = {}
        self._in: Dict[Reg, Dict[Reg, float]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def add_node(self, r: Reg) -> None:
        """Ensure ``r`` exists as a node (idempotent)."""
        self._out.setdefault(r, {})
        self._in.setdefault(r, {})

    def add_edge(self, u: Reg, v: Reg, weight: float = 1.0) -> None:
        """Accumulate weight on ``u -> v``.  Self edges are always satisfied
        (difference 0) and are not stored, matching the paper."""
        if u == v:
            return
        self.add_node(u)
        self.add_node(v)
        self._out[u][v] = self._out[u].get(v, 0.0) + weight
        self._in[v][u] = self._in[v].get(u, 0.0) + weight

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def nodes(self) -> List[Reg]:
        """All nodes, sorted for determinism."""
        return sorted(self._out)

    def __contains__(self, r: Reg) -> bool:
        return r in self._out

    def edges(self) -> List[Tuple[Reg, Reg, float]]:
        """All edges as ``(from, to, weight)``, deterministically ordered."""
        return [
            (u, v, w)
            for u in sorted(self._out)
            for v, w in sorted(self._out[u].items())
        ]

    def weight(self, u: Reg, v: Reg) -> float:
        """Accumulated weight on ``u -> v`` (0 when absent)."""
        return self._out.get(u, {}).get(v, 0.0)

    def out_edges(self, u: Reg) -> Dict[Reg, float]:
        """Successors of ``u`` with weights (a copy)."""
        return dict(self._out.get(u, {}))

    def in_edges(self, v: Reg) -> Dict[Reg, float]:
        """Predecessors of ``v`` with weights (a copy)."""
        return dict(self._in.get(v, {}))

    def total_weight(self) -> float:
        """Sum of all edge weights."""
        return sum(w for _, _, w in self.edges())

    # ------------------------------------------------------------------
    # cost model
    # ------------------------------------------------------------------

    def cost(self, assignment: Mapping[Reg, int], reg_n: int, diff_n: int) -> float:
        """Total weight of edges violating condition (3).

        Edges with an endpoint missing from ``assignment`` (e.g. spilled or
        not-yet-selected live ranges) contribute nothing.
        """
        total = 0.0
        for u, targets in self._out.items():
            nu = assignment.get(u)
            if nu is None:
                continue
            for v, w in targets.items():
                nv = assignment.get(v)
                if nv is None:
                    continue
                if not edge_satisfied(nu, nv, reg_n, diff_n):
                    total += w
        return total

    def node_cost(self, r: Reg, number: int, assignment: Mapping[Reg, int],
                  reg_n: int, diff_n: int) -> float:
        """Cost of the edges incident to ``r`` if ``r`` gets ``number``.

        Only edges whose other endpoint is already assigned are counted —
        this is the quantity differential select minimises when coloring one
        node (Section 6).
        """
        total = 0.0
        for v, w in self._out.get(r, {}).items():
            nv = number if v == r else assignment.get(v)
            if nv is not None and not edge_satisfied(number, nv, reg_n, diff_n):
                total += w
        for u, w in self._in.get(r, {}).items():
            if u == r:
                continue  # already counted above
            nu = assignment.get(u)
            if nu is not None and not edge_satisfied(nu, number, reg_n, diff_n):
                total += w
        return total

    # ------------------------------------------------------------------
    # transformation
    # ------------------------------------------------------------------

    def copy(self) -> "AdjacencyGraph":
        """Deep copy (independent edge maps)."""
        g = AdjacencyGraph()
        g._out = {u: dict(ts) for u, ts in self._out.items()}
        g._in = {v: dict(ss) for v, ss in self._in.items()}
        return g

    def merge(self, keep: Reg, drop: Reg) -> None:
        """Redirect ``drop``'s edges onto ``keep`` (used by coalescing).

        Edges that become self loops disappear: after coalescing, those
        adjacent accesses hit the same register and encode as difference 0.
        """
        if keep == drop:
            return
        self.add_node(keep)
        for v, w in list(self._out.get(drop, {}).items()):
            self._in[v].pop(drop, None)
            self.add_edge(keep, v, w)
        for u, w in list(self._in.get(drop, {}).items()):
            self._out[u].pop(drop, None)
            self.add_edge(u, keep, w)
        self._out.pop(drop, None)
        self._in.pop(drop, None)


def build_adjacency(fn: Function, order: str = "src_first", cls: str = "int",
                    freq: Optional[Mapping[str, float]] = None) -> AdjacencyGraph:
    """Build the adjacency graph of ``fn`` (paper Section 4).

    Within a block, consecutive accesses add the block's frequency to the
    edge.  Across a CFG edge ``P -> B`` the pair (last access of ``P``,
    first access of ``B``) is added with weight ``freq(B) / #preds(B)``:
    however many predecessors disagree, at most one ``set_last_reg`` at the
    head of ``B`` repairs them all, so the expected cost is divided.
    Predecessors with no register accesses contribute nothing.

    Built graphs are memoized on the function's structural fingerprint
    plus ``(order, cls, freq)`` — remapping and selection build the same
    graph for the same allocation repeatedly.  Each call returns a private
    :meth:`AdjacencyGraph.copy`, because coalescing mutates its graph via
    :meth:`AdjacencyGraph.merge`.
    """
    from repro.analysis.cache import fingerprint_function, memoize_analysis

    freq_key = None if freq is None else tuple(sorted(freq.items()))
    key = ("adjacency", order, cls, freq_key, fingerprint_function(fn))
    graph = memoize_analysis(
        key, lambda: _build_adjacency_ref(fn, order, cls, freq))
    return graph.copy()


def _build_adjacency_ref(fn: Function, order: str, cls: str,
                         freq: Optional[Mapping[str, float]]
                         ) -> AdjacencyGraph:
    """Walk each block's access sequence, then every CFG edge's
    (last access, first access) pair, accumulating edge weights."""
    g = AdjacencyGraph()
    _, preds = fn.cfg()
    block_seqs: Dict[str, List[Reg]] = {
        b.name: block_access_sequence(b, order, cls) for b in fn.blocks
    }

    def f(name: str) -> float:
        return freq.get(name, 1.0) if freq else 1.0

    for b in fn.blocks:
        seq = block_seqs[b.name]
        for prev, cur in zip(seq, seq[1:]):
            g.add_edge(prev, cur, f(b.name))

    for b in fn.blocks:
        seq = block_seqs[b.name]
        if not seq:
            continue
        first = seq[0]
        ps = preds[b.name]
        if not ps:
            continue
        share = f(b.name) / len(ps)
        for p in ps:
            pseq = block_seqs[p]
            if pseq:
                g.add_edge(pseq[-1], first, share)
    return g
