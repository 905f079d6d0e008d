"""Differential remapping — approach 1 (paper Section 5).

A post-pass over already-allocated code: permute the physical register
numbers to minimise the adjacency-graph cost of condition (3).  Permuting
never changes which live ranges share a register, so any allocator's output
remains valid; only the *numbers* change, and with differential encoding the
numbers matter.

Two searches are provided:

* :func:`differential_remap` — the polynomial greedy heuristic of Figure 7:
  steepest-descent over pairwise swaps of the register vector, restarted from
  a number of random initial vectors (the paper uses 1000) and keeping the
  best local minimum.
* :func:`exact_remap` — the optimum for small ``RegN`` (the paper's
  exhaustive search is "tractable for small RegN"), found by branch and
  bound; :func:`remap_optimality_gap` calibrates the greedy against it.

All restarts of one search descend **in lockstep**
(:func:`_lockstep_descent`): the starting permutations form one
``[starts, RegN]`` array, and each round computes every candidate swap's
cost change for every still-descending start in one integer table, takes
each row's first maximum (the scan-order tie-break of the O(E)-per-
candidate :func:`_greedy_descent_reference` it replaces), applies the
winning swaps and retires rows that found no improving swap.  A swap's
gain is read off per-register placement tables — the satisfied weight
of a register's incident edges at every number — built by one circular
window sum per round.  Edge weights are scaled to exact integers (see
:data:`_WEIGHT_SCALE`), so every gain equals the difference of two full
:func:`_perm_cost` evaluations and each start returns the reference's
permutation and cost bit for bit.  Weights beyond
:data:`_NUMPY_WEIGHT_LIMIT` descend through the reference itself, one
start at a time, to the same results.  Results are folded in restart
order, stopping at the first zero-cost start.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.adjacency import build_adjacency
from repro.analysis.frequency import estimate_block_frequencies
from repro.ir.function import Function
from repro.ir.instr import Reg

__all__ = [
    "RemapResult",
    "ExactRemapResult",
    "differential_remap",
    "exact_remap",
    "remap_optimality_gap",
    "apply_permutation",
]

Edge = Tuple[int, int, int]

#: Edge weights enter as floats — block frequencies plus predecessor shares
#: ``freq / len(preds)`` — and are scaled by lcm(1..16) = 720720 into exact
#: integers.  Exact weights make the swap search deterministic: a delta is
#: the same number whether it is read off the lockstep placement tables or
#: computed by differencing two full-cost evaluations, so the lockstep
#: descent and the reference pick the same swap
#: at every step.  Reported costs are divided back.
_WEIGHT_SCALE = 720720

#: Weights at or above this bound descend through
#: :func:`_greedy_descent_reference`, whose arbitrary-precision integers
#: cannot overflow int64 accumulation.
_NUMPY_WEIGHT_LIMIT = 1 << 40

#: Cells of the per-round tables (delta pairs plus the placement window)
#: one lockstep block may hold; more starts than fit descend in blocks.
_LOCKSTEP_CELLS = 1 << 20


@dataclass
class RemapResult:
    """Outcome of a remapping search."""

    fn: Function
    permutation: Tuple[int, ...]  # old register number -> new register number
    cost_before: float
    cost_after: float
    restarts: int = 1

    @property
    def improvement(self) -> float:
        return self.cost_before - self.cost_after


def _edge_list(fn: Function, reg_n: int, order: str,
               freq: Optional[Mapping[str, float]]) -> List[Edge]:
    """The adjacency edges inside the differential space, as id triples.

    Parallel ``(u, v)`` edges are collapsed into one summed weight so both
    searches iterate a minimal edge set (and the incremental buckets stay
    small); first-seen order is preserved.  Weights are scaled to exact
    integers (:data:`_WEIGHT_SCALE`); with integer block frequencies the
    scaling is lossless, anything else is quantised to ~1e-6 of a unit
    weight.
    """
    graph = build_adjacency(fn, order=order, freq=freq)
    weights: Dict[Tuple[int, int], float] = {}
    for u, v, w in graph.edges():
        if u.virtual or v.virtual:
            raise ValueError("remapping requires allocated (physical) code")
        if u.id < reg_n and v.id < reg_n and u.cls == "int" and v.cls == "int":
            key = (u.id, v.id)
            weights[key] = weights.get(key, 0.0) + w
    return [(u, v, round(w * _WEIGHT_SCALE)) for (u, v), w in weights.items()]


def _perm_cost(perm: Sequence[int], edges: Sequence[Tuple[int, int, float]],
               reg_n: int, diff_n: int) -> float:
    total = 0
    for u, v, w in edges:
        if (perm[v] - perm[u]) % reg_n >= diff_n:
            total += w
    return total


def apply_permutation(fn: Function, perm: Sequence[int], reg_n: int) -> Function:
    """Renumber physical int registers below ``reg_n`` through ``perm``."""
    mapping: Dict[Reg, Reg] = {}
    for r in fn.registers():
        if not r.virtual and r.cls == "int" and r.id < reg_n:
            mapping[r] = Reg(perm[r.id], virtual=False, cls="int")
    return fn.rewrite_registers(mapping)


class _ExactEngine:
    """Branch-and-bound over register→number assignments, provably exact.

    Numbers are assigned in order ``0, 1, ..., reg_n - 1``; at depth ``k``
    the engine chooses which still-unplaced register receives number ``k``.
    Three devices keep the tree far below ``RegN!`` leaves:

    * **rotation pinning** — condition (3) only reads differences
      ``(perm[v] - perm[u]) mod RegN``, which a rotation of all numbers
      leaves untouched, so with no ``pinned`` constraint the first free
      register can be fixed at number 0 (a factor-``RegN`` reduction);
    * **forced cross-edge violations** — an edge from a placed register
      whose partner cannot reach any remaining number within ``DiffN``
      contributes its full weight to the bound already;
    * **a memoized subproblem table** ``h(mask)`` — the exact minimum
      violation weight of the edges internal to the unplaced set ``mask``,
      placed into any contiguous number block.  Because the remaining
      numbers ``{k..RegN-1}`` are always a translate of ``{0..m-1}`` and
      translation preserves differences mod ``RegN``, ``h`` depends only
      on the *set* of unplaced registers: at most ``2^RegN`` entries, each
      solved once.  ``memo`` is exposed for the DP-table unit tests.

    The admissible bound is ``g + forced_cross + h(mask)``; ``nodes`` and
    ``pruned`` count explored and cut subtrees for the calibration report.
    """

    def __init__(self, edges: Sequence[Edge], reg_n: int, diff_n: int,
                 pinned: Sequence[int] = ()) -> None:
        self.edges = list(edges)
        self.reg_n = reg_n
        self.diff_n = diff_n
        self.pinned_set = set(pinned)
        self.memo: Dict[int, int] = {}
        self.nodes = 0
        self.pruned = 0

    def _violates(self, nu: int, nv: int) -> bool:
        return (nv - nu) % self.reg_n >= self.diff_n

    def h(self, mask: int) -> int:
        """Exact minimum violation weight of the edges internal to the
        register set ``mask``, placed into a contiguous number block."""
        cached = self.memo.get(mask)
        if cached is not None:
            return cached
        regs = [r for r in range(self.reg_n) if mask >> r & 1]
        internal = [(u, v, w) for u, v, w in self.edges
                    if u != v and (mask >> u & 1) and (mask >> v & 1)]
        best = 0
        if internal:
            best = None
            for images in itertools.permutations(range(len(regs))):
                num = dict(zip(regs, images))
                c = sum(w for u, v, w in internal
                        if self._violates(num[u], num[v]))
                if best is None or c < best:
                    best = c
                    if best == 0:
                        break
        self.memo[mask] = best
        return best

    def _forced_cross(self, num: List[int], mask: int, k: int) -> int:
        """Weight of cross edges violated under every remaining number."""
        remaining = range(k, self.reg_n)
        total = 0
        for u, v, w in self.edges:
            u_placed = not (mask >> u & 1)
            v_placed = not (mask >> v & 1)
            if u_placed == v_placed:
                continue
            if u_placed:
                if all(self._violates(num[u], q) for q in remaining):
                    total += w
            else:
                if all(self._violates(q, num[v]) for q in remaining):
                    total += w
        return total

    def solve(self) -> Tuple[int, Tuple[int, ...]]:
        """The minimum scaled cost and a permutation achieving it."""
        n = self.reg_n
        num = [-1] * n
        best_cost: Optional[int] = None
        best_perm: Optional[Tuple[int, ...]] = None

        def place(k: int, mask: int, g: int) -> None:
            nonlocal best_cost, best_perm
            self.nodes += 1
            if mask == 0:
                if best_cost is None or g < best_cost:
                    best_cost, best_perm = g, tuple(num)
                return
            if best_cost is not None:
                bound = g + self._forced_cross(num, mask, k) + self.h(mask)
                if bound >= best_cost:
                    self.pruned += 1
                    return
            if k in self.pinned_set:
                candidates = [k]
            elif k == 0 and not self.pinned_set:
                # rotation pinning: fix the lowest register at number 0
                candidates = [min(r for r in range(n) if mask >> r & 1)]
            else:
                candidates = [r for r in range(n)
                              if (mask >> r & 1) and r not in self.pinned_set]
            for r in candidates:
                num[r] = k
                nm = mask & ~(1 << r)
                dg = 0
                for u, v, w in self.edges:
                    if u == r and v != r and not (nm >> v & 1):
                        if self._violates(k, num[v]):
                            dg += w
                    elif v == r and u != r and not (nm >> u & 1):
                        if self._violates(num[u], k):
                            dg += w
                place(k + 1, nm, g + dg)
                num[r] = -1

        place(0, (1 << n) - 1, 0)
        assert best_cost is not None and best_perm is not None
        return best_cost, best_perm


@dataclass
class ExactRemapResult:
    """Outcome of the exact branch-and-bound remapping search."""

    fn: Function
    permutation: Tuple[int, ...]
    cost_before: float
    cost_after: float
    nodes: int = 0          # branch-and-bound tree nodes explored
    pruned: int = 0         # subtrees cut by the admissible bound
    memo_size: int = 0      # distinct h(mask) subproblems solved

    @property
    def improvement(self) -> float:
        """Cost removed relative to the incoming register numbering."""
        return self.cost_before - self.cost_after


def exact_remap(fn: Function, reg_n: int, diff_n: int,
                order: str = "src_first",
                freq: Optional[Mapping[str, float]] = None,
                pinned: Sequence[int] = ()) -> ExactRemapResult:
    """Provably optimal remapping via branch-and-bound (``RegN <= 8``).

    Same contract as :func:`differential_remap`, but the returned cost is
    the true minimum of condition (3)'s adjacency objective — the engine
    exists to *calibrate* the greedy descent's optimality gap
    (:func:`remap_optimality_gap`), not to replace it: the tree is
    exponential in ``RegN`` even with the :class:`_ExactEngine` bounds.
    """
    if reg_n > 8:
        raise ValueError(f"exact remap is exponential; RegN={reg_n} > 8")
    if freq is None:
        freq = estimate_block_frequencies(fn)
    edges = _edge_list(fn, reg_n, order, freq)
    identity = tuple(range(reg_n))
    base_cost = _perm_cost(identity, edges, reg_n, diff_n)
    engine = _ExactEngine(edges, reg_n, diff_n, pinned)
    best_cost, best_perm = engine.solve()
    return ExactRemapResult(
        fn=apply_permutation(fn, best_perm, reg_n),
        permutation=best_perm,
        cost_before=base_cost / _WEIGHT_SCALE,
        cost_after=best_cost / _WEIGHT_SCALE,
        nodes=engine.nodes,
        pruned=engine.pruned,
        memo_size=len(engine.memo),
    )


def remap_optimality_gap(fn: Function, reg_n: int, diff_n: int,
                         order: str = "src_first",
                         freq: Optional[Mapping[str, float]] = None,
                         restarts: int = 100,
                         seed: int = 0,
                         pinned: Sequence[int] = ()) -> Dict[str, float]:
    """Calibrate the greedy descent against the exact optimum.

    Runs :func:`differential_remap` and :func:`exact_remap` on the same
    adjacency problem and reports both costs plus their gap — by
    construction ``gap >= 0``, and the regression suite ratchets it
    non-increasing per corpus function.  Keys: ``greedy_cost``,
    ``exact_cost``, ``gap``, ``nodes``, ``pruned``, ``memo_size``.
    """
    if freq is None:
        freq = estimate_block_frequencies(fn)
    greedy = differential_remap(fn, reg_n, diff_n, order=order, freq=freq,
                                restarts=restarts, seed=seed, pinned=pinned)
    exact = exact_remap(fn, reg_n, diff_n, order=order, freq=freq,
                        pinned=pinned)
    return {
        "greedy_cost": greedy.cost_after,
        "exact_cost": exact.cost_after,
        "gap": greedy.cost_after - exact.cost_after,
        "nodes": float(exact.nodes),
        "pruned": float(exact.pruned),
        "memo_size": float(exact.memo_size),
    }


def _lockstep_descent(edges: Sequence[Edge], reg_n: int, diff_n: int,
                      free: Sequence[int], starts: Sequence[Sequence[int]]
                      ) -> List[Tuple[int, List[int]]]:
    """Every start's steepest descent at once, one delta table per round.

    With ``place[r, x]`` the weight of register ``r``'s incident edges
    that would be satisfied were ``r`` to take number ``x`` (every other
    register staying put), swapping ``a`` and ``b`` gains
    ``place[a, P[b]] + place[b, P[a]] - place[a, P[a]] - place[b, P[b]]``
    plus an exact correction for the edges between ``a`` and ``b``, which
    those four terms evaluate with both endpoints on one number.
    ``place[r, x]`` is a circular window sum over ``r``'s edge weights
    laid out by the partner's current number — the ``DiffN`` numbers from
    ``x`` on for out-edges, up to ``x`` for in-edges — so one cumsum over
    a ``[starts, numbers, registers]`` table yields it for every start;
    registers without edges share one zero column.  Each round takes the
    first maximum per row (the reference's scan-order tie-break), applies
    the winning swaps and retires rows whose best gain is ``<= 0``.
    Weights are non-negative, so a row at cost 0 is finished and the rows
    after it are dropped — the restart fold stops there — and
    ``(cost, perm)`` is returned up to that start.
    """
    P0 = np.array(starts, dtype=np.int64).reshape(len(starts), reg_n)
    U, V, W = (np.array([e[i] for e in edges], dtype=np.int64)
               for i in range(3))
    costs = (((P0[:, V] - P0[:, U]) % reg_n >= diff_n) * W).sum(axis=1)
    perms = P0.copy()
    zero = np.flatnonzero(costs == 0)
    limit = int(zero[0]) + 1 if len(zero) else len(starts)

    Wm = np.zeros((reg_n, reg_n), dtype=np.int64)
    np.add.at(Wm, (U, V), W)
    np.fill_diagonal(Wm, 0)  # self-edges never change under a swap
    link = Wm + Wm.T
    used = np.flatnonzero(link.any(axis=1))
    m = len(used)
    col = np.full(reg_n, m, dtype=np.int64)
    col[used] = np.arange(m)
    free_arr = np.asarray(free, dtype=np.int64)
    ai, bi = np.triu_indices(len(free), 1)
    PA, PB = free_arr[ai], free_arr[bi]
    if not m or not len(PA):
        return list(zip(costs[:limit].tolist(), perms[:limit].tolist()))

    D = min(max(diff_n, 0), reg_n)
    t_out = np.zeros((reg_n, m + 1), dtype=np.int64)
    t_out[:, :m] = Wm[used].T        # [partner, r]: weight of r -> partner
    t_in = np.zeros((reg_n, m + 1), dtype=np.int64)
    t_in[:, :m] = Wm[:, used]        # [partner, r]: weight of partner -> r
    # in-partners are laid out D - 1 numbers later, so the forward window
    # from x covers their numbers x - D + 1 .. x
    shift = (np.arange(reg_n) - D + 1) % reg_n
    colA, colB = col[PA], col[PB]
    LK = np.flatnonzero(link[PA, PB])
    LW = link[PA[LK], PB[LK]]
    num = np.arange(reg_n)
    sat = ((num[None, :] - num[:, None]) % reg_n < diff_n).astype(np.int64)
    SS = (sat + sat.T - 2 * int(diff_n > 0)).ravel()
    rows = max(1, _LOCKSTEP_CELLS // (len(PA) + (reg_n + D + 1) * (m + 1)))
    lo = 0
    while lo < limit:
        act = np.arange(lo, min(lo + rows, limit))
        lo += rows
        P, cost = P0[act], costs[act]
        Pinv = np.argsort(P, axis=1)  # number -> register
        while len(act):
            k = len(act)
            G = np.zeros((k, reg_n + D + 1, m + 1), dtype=np.int64)
            np.add(t_out[Pinv], t_in[Pinv[:, shift]], out=G[:, 1:reg_n + 1])
            G[:, reg_n + 1:] = G[:, 1:D + 1]
            np.cumsum(G, axis=1, out=G)
            place = (G[:, D:D + reg_n] - G[:, :reg_n]).reshape(k, -1)
            pa, pb = P[:, PA], P[:, PB]
            delta = np.take_along_axis(place, pb * (m + 1) + colA, 1)
            delta += np.take_along_axis(place, pa * (m + 1) + colB, 1)
            own = np.take_along_axis(place, P * (m + 1) + col, 1)
            delta -= own[:, PA] + own[:, PB]
            if len(LK):
                delta[:, LK] += LW * SS[pa[:, LK] * reg_n + pb[:, LK]]
            pick = delta.argmax(axis=1)
            best = delta[np.arange(k), pick]
            r = np.flatnonzero(best > 0)
            a, b = PA[pick[r]], PB[pick[r]]
            xa, xb = P[r, a], P[r, b]
            P[r, a], P[r, b] = xb, xa
            Pinv[r, xa], Pinv[r, xb] = b, a
            cost[r] -= best[r]
            done = best <= 0
            costs[act[done]], perms[act[done]] = cost[done], P[done]
            zero = act[cost == 0]
            if len(zero):
                limit = min(limit, int(zero[0]) + 1)
            keep = ~done & (act < limit)
            act, P, Pinv, cost = act[keep], P[keep], Pinv[keep], cost[keep]
    return list(zip(costs[:limit].tolist(), perms[:limit].tolist()))


def _descend_starts(edges: Sequence[Edge], reg_n: int, diff_n: int,
                    free: Sequence[int], starts: Sequence[Sequence[int]]
                    ) -> List[Tuple[int, List[int]]]:
    """Steepest descent (the paper's Figure 7 loop) from each start, in
    order, up to and including the first that reaches cost 0.

    Returns ``(cost, perm)`` pairs: the scaled integer local-minimum cost
    and a fresh permutation list.  The lockstep descent runs unless a
    weight reaches :data:`_NUMPY_WEIGHT_LIMIT`; then
    :func:`_descend_starts_reference` descends one start at a time to the
    same results.
    """
    if all(abs(w) < _NUMPY_WEIGHT_LIMIT for _, _, w in edges):
        return _lockstep_descent(edges, reg_n, diff_n, free, starts)
    return _descend_starts_reference(edges, reg_n, diff_n, free, starts)


def _descend_starts_reference(edges: Sequence[Edge], reg_n: int,
                              diff_n: int, free: Sequence[int],
                              starts: Sequence[Sequence[int]]
                              ) -> List[Tuple[int, List[int]]]:
    """:func:`_descend_starts` through :func:`_greedy_descent_reference`,
    one start at a time."""
    results: List[Tuple[int, List[int]]] = []
    for start in starts:
        perm = list(start)
        results.append((_greedy_descent_reference(perm, edges, reg_n, diff_n,
                                                  free), perm))
        if results[-1][0] == 0:
            break
    return results


def _greedy_descent_reference(perm: List[int], edges: Sequence[Edge],
                              reg_n: int, diff_n: int,
                              free: Sequence[int]) -> int:
    """The original O(E)-per-candidate descent, kept as the ground truth
    for equivalence tests."""
    cost = _perm_cost(perm, edges, reg_n, diff_n)
    while True:
        best_delta = 0
        best_swap: Optional[Tuple[int, int]] = None
        for ai in range(len(free)):
            for bi in range(ai + 1, len(free)):
                a, b = free[ai], free[bi]
                perm[a], perm[b] = perm[b], perm[a]
                new_cost = _perm_cost(perm, edges, reg_n, diff_n)
                perm[a], perm[b] = perm[b], perm[a]
                delta = cost - new_cost
                if delta > best_delta:
                    best_delta, best_swap = delta, (a, b)
        if best_swap is None:
            return cost
        a, b = best_swap
        perm[a], perm[b] = perm[b], perm[a]
        cost -= best_delta


def _start_perms(identity: Sequence[int], free: Sequence[int],
                 restarts: int, seed: int) -> List[List[int]]:
    """The descent starting points: identity, then ``restarts - 1``
    seeded shuffles of the free registers (the paper's random restarts)."""
    rng = random.Random(seed)
    starts = [list(identity)]
    for _ in range(max(0, restarts - 1)):
        images = list(free)
        rng.shuffle(images)
        perm = list(identity)
        for slot, image in zip(free, images):
            perm[slot] = image
        starts.append(perm)
    return starts


def differential_remap(fn: Function, reg_n: int, diff_n: int,
                       order: str = "src_first",
                       freq: Optional[Mapping[str, float]] = None,
                       restarts: int = 100,
                       seed: int = 0,
                       pinned: Sequence[int] = ()) -> RemapResult:
    """Greedy remapping with random restarts (paper Section 5, Figure 7).

    ``pinned`` register numbers keep their identity mapping — used to respect
    calling conventions without the store-repair of Section 9.3 (parameter
    and return registers stay put).

    Restarts descend in order up to the first that reaches cost 0;
    ``RemapResult.restarts`` counts those that ran, and the first
    cheapest local minimum wins.
    """
    if freq is None:
        freq = estimate_block_frequencies(fn)
    edges = _edge_list(fn, reg_n, order, freq)
    pinned_set = set(pinned)
    free = [i for i in range(reg_n) if i not in pinned_set]
    identity = list(range(reg_n))
    base_cost = _perm_cost(identity, edges, reg_n, diff_n)

    starts = _start_perms(identity, free, restarts, seed)
    outcomes = _descend_starts(edges, reg_n, diff_n, free, starts)
    # min returns the first of equal costs: the earliest restart wins ties
    best_cost, best_perm = min(outcomes, key=lambda outcome: outcome[0])
    return RemapResult(
        fn=apply_permutation(fn, best_perm, reg_n),
        permutation=tuple(best_perm),
        cost_before=base_cost / _WEIGHT_SCALE,
        cost_after=best_cost / _WEIGHT_SCALE,
        restarts=len(outcomes),
    )
