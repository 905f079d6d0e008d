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
* :func:`exact_remap` — the optimum (the paper's exhaustive search is
  "tractable for small RegN"), found by HiGHS on an assignment model at
  any ``RegN`` within a time limit; :func:`remap_optimality_gap`
  calibrates the greedy against it.  It is a test and benchmark oracle,
  not a pipeline stage.

All restarts of one search descend **in lockstep**
(:func:`_lockstep_descent`): the starting permutations form one
``[starts, RegN]`` array, and each round computes every candidate swap's
cost change for every still-descending start in one integer table, takes
each row's first maximum (the scan-order tie-break of the O(E)-per-
candidate descent it replaces, which ``tests/test_remap_incremental.py``
keeps as the reference), applies the winning swaps and retires rows that
found no improving swap.  A swap's gain is read off per-register
placement tables — the satisfied weight of a register's incident edges
at every number — built by one circular window sum per round.  Edge
weights are scaled to exact integers (see :data:`_WEIGHT_SCALE`), so
every gain equals the difference of two full :func:`_perm_cost`
evaluations and each start returns the reference's permutation and cost
bit for bit.  The tables hold int64 unless a weight reaches
:data:`_NUMPY_WEIGHT_LIMIT`; then they hold Python ints, which cannot
overflow.  Results are folded in restart order, stopping at the first
zero-cost start.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.adjacency import build_adjacency
from repro.analysis.frequency import estimate_block_frequencies
from repro.ir.function import Function
from repro.ir.instr import Reg
from repro.regalloc import highs

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

#: With a weight at or above this bound the lockstep tables hold Python
#: ints (``dtype=object``): their window sums could overflow int64.  A
#: 7-deep loop nest at static frequencies reaches it (10**7 * 720720).
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
    searches work on a minimal edge set; first-seen order is preserved.
    Weights are scaled to exact integers (:data:`_WEIGHT_SCALE`); with
    integer block frequencies the scaling is lossless, anything else is
    quantised to ~1e-6 of a unit weight.
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


#: Wall-clock limit of one exact solve, in seconds.  A search that hits
#: it returns the best permutation HiGHS found and its dual bound,
#: unproven.
_EXACT_TIME_LIMIT = 60.0


def _exact_solve(edges: Sequence[Edge], reg_n: int, diff_n: int,
                 pinned: Sequence[int] = ()
                 ) -> Tuple[Tuple[int, ...], int, int]:
    """The assignment model of condition (3), solved by HiGHS.

    Binaries ``x[r, p]`` place register ``r`` at number ``p`` (a
    ``RegN x RegN`` assignment).  Each edge ``u -> v`` with ``u != v``
    has a continuous ``y_e`` that must reach 1 whenever ``u`` sits at
    some ``p`` and ``v`` at a number ``DiffN`` or more past it:
    ``y_e >= x[u, p] + sum(x[v, q] for (q - p) % RegN >= DiffN) - 1``.
    The objective is ``sum(w_e * y_e)``.  Pinned registers keep their
    number; with none pinned, the lowest register that has an edge is
    fixed at number 0, since the cost reads only differences.

    Returns the permutation, its cost and HiGHS's lower bound on every
    permutation's cost (both in scaled integer weights, the bound capped
    at the cost); the permutation is optimal when the two are equal.
    """
    # a self-edge is satisfied under every permutation
    cross = [(u, v, w) for u, v, w in edges if u != v and w]
    # the objective in units of the weights' gcd is integral, so a dual
    # bound within 1 of the incumbent proves it optimal
    unit = math.gcd(*(w for _, _, w in cross)) or 1
    n_x = reg_n * reg_n
    regs = np.arange(reg_n)
    # the assignment: one number per register, one register per number
    rows = [np.repeat(regs, reg_n), reg_n + np.tile(regs, reg_n)]
    cols = [np.arange(n_x)] * 2
    # (p, q): u at p and v at q violate the edge
    p, q = np.nonzero((regs[None, :] - regs[:, None]) % reg_n >= diff_n)
    for e, (u, v, _) in enumerate(cross):
        base = 2 * reg_n + e * reg_n
        rows += [base + regs, base + p, base + regs]
        cols += [u * reg_n + regs, v * reg_n + q,
                 np.full(reg_n, n_x + e)]
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    vals = np.where(cols < n_x, 1.0, -1.0)
    n_rows = 2 * reg_n + len(cross) * reg_n
    lo = np.full(n_rows, -np.inf)
    lo[:2 * reg_n] = 1.0
    hi = np.ones(n_rows)
    var_lo = np.zeros(n_x + len(cross))
    if pinned:
        var_lo[[r * reg_n + r for r in pinned]] = 1.0
    elif cross:
        var_lo[min(min(u, v) for u, v, _ in cross) * reg_n] = 1.0
    res = highs.solve_mip(
        np.concatenate([np.zeros(n_x), [w // unit for _, _, w in cross]]),
        highs.CscMatrix.from_coo(rows, cols, vals, (n_rows, len(var_lo))),
        lo, hi, var_lo, np.ones(len(var_lo)), n_int=n_x,
        time_limit=_EXACT_TIME_LIMIT, mip_rel_gap=0.0,
    )
    if res is None:
        raise RuntimeError("HiGHS found no assignment")
    perm = tuple(res.x[:n_x].reshape(reg_n, reg_n).argmax(axis=1).tolist())
    cost = _perm_cost(perm, edges, reg_n, diff_n)
    bound = math.ceil(res.mip_dual_bound - 1e-6) * unit
    return perm, cost, min(bound, cost)


@dataclass
class ExactRemapResult:
    """Outcome of the exact remapping search."""

    fn: Function
    permutation: Tuple[int, ...]
    cost_before: float
    cost_after: float
    bound: float   # HiGHS's dual bound: no permutation costs less
    proven: bool   # bound == cost_after: the permutation is optimal

    @property
    def improvement(self) -> float:
        """Cost removed relative to the incoming register numbering."""
        return self.cost_before - self.cost_after


def exact_remap(fn: Function, reg_n: int, diff_n: int,
                order: str = "src_first",
                freq: Optional[Mapping[str, float]] = None,
                pinned: Sequence[int] = ()) -> ExactRemapResult:
    """Provably optimal remapping via a HiGHS assignment model.

    Same contract as :func:`differential_remap`, but the returned cost is
    the true minimum of condition (3)'s adjacency objective whenever
    ``proven`` is set; a solve that hits :data:`_EXACT_TIME_LIMIT` returns
    its best permutation and dual bound.  The model exists to *calibrate*
    the greedy descent (:func:`remap_optimality_gap`), not to replace it:
    it takes seconds where the descent takes milliseconds.
    """
    if freq is None:
        freq = estimate_block_frequencies(fn)
    edges = _edge_list(fn, reg_n, order, freq)
    base_cost = _perm_cost(range(reg_n), edges, reg_n, diff_n)
    perm, cost, bound = _exact_solve(edges, reg_n, diff_n, pinned)
    return ExactRemapResult(
        fn=apply_permutation(fn, perm, reg_n),
        permutation=perm,
        cost_before=base_cost / _WEIGHT_SCALE,
        cost_after=cost / _WEIGHT_SCALE,
        bound=bound / _WEIGHT_SCALE,
        proven=bound == cost,
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
    construction ``gap >= 0`` when ``proven`` is 1, and the regression
    suite ratchets it non-increasing per corpus function.  Keys:
    ``greedy_cost``, ``exact_cost``, ``bound``, ``proven``, ``gap``.
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
        "bound": exact.bound,
        "proven": float(exact.proven),
        "gap": greedy.cost_after - exact.cost_after,
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
    ``(cost, perm)`` is returned up to that start: the scaled integer
    local-minimum cost and a fresh permutation list per start.

    The weight tables (``W``, ``Wm``, ``t_out``, ``t_in``, ``G``) are
    int64 unless a weight reaches :data:`_NUMPY_WEIGHT_LIMIT`, and Python
    ints otherwise; the steps and tie-breaks are the same for both.
    """
    wtype = (np.int64 if all(abs(w) < _NUMPY_WEIGHT_LIMIT
                             for _, _, w in edges) else object)
    P0 = np.array(starts, dtype=np.int64).reshape(len(starts), reg_n)
    U, V = (np.array([e[i] for e in edges], dtype=np.int64) for i in range(2))
    W = np.array([e[2] for e in edges], dtype=wtype)
    costs = (((P0[:, V] - P0[:, U]) % reg_n >= diff_n) * W).sum(axis=1)
    perms = P0.copy()
    zero = np.flatnonzero(costs == 0)
    limit = int(zero[0]) + 1 if len(zero) else len(starts)

    Wm = np.zeros((reg_n, reg_n), dtype=wtype)
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
    t_out = np.zeros((reg_n, m + 1), dtype=wtype)
    t_out[:, :m] = Wm[used].T        # [partner, r]: weight of r -> partner
    t_in = np.zeros((reg_n, m + 1), dtype=wtype)
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
            G = np.zeros((k, reg_n + D + 1, m + 1), dtype=wtype)
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
    outcomes = _lockstep_descent(edges, reg_n, diff_n, free, starts)
    # min returns the first of equal costs: the earliest restart wins ties
    best_cost, best_perm = min(outcomes, key=lambda outcome: outcome[0])
    return RemapResult(
        fn=apply_permutation(fn, best_perm, reg_n),
        permutation=tuple(best_perm),
        cost_before=base_cost / _WEIGHT_SCALE,
        cost_after=best_cost / _WEIGHT_SCALE,
        restarts=len(outcomes),
    )
