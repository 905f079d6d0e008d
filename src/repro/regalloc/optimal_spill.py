"""Optimal spilling (Appel & George, PLDI 2001) — the *O-spill* allocator.

The paper's third scheme builds on an allocator that first decides spills
*optimally* with an ILP solver, then coalesces the resulting moves and colors
the graph.  We reproduce that structure:

1. **Residence decisions** (:func:`decide_residence`): for every virtual
   register and every program point where it is live, a binary variable says
   whether the value sits in a register or in its spill slot.  Constraints:
   at most ``k`` values in registers at any point; operands of an
   instruction must be in registers at it; definitions write to registers;
   residence agrees across CFG edges.  The objective minimises frequency
   weighted loads (memory→register transitions) plus stores
   (register→memory transitions of dirty values).  Solved exactly by
   HiGHS through :mod:`repro.regalloc.highs` — the authors used CPLEX —
   with a greedy spill-everywhere fallback when the instance exceeds
   ``max_ilp_vars`` or HiGHS returns no optimal solution.

   Each function's problem, constraint matrix included, is built once;
   only the capacity bounds change with ``k``.  When no capacity row can
   bind, the all-resident plan is returned without calling HiGHS.  That
   is exact: the plan meets every constraint and its cost 0 is the ILP's
   lower bound.
   :func:`optimal_spill_allocate` also solves its ``k - 1`` slack-retry
   model speculatively, on a worker thread alongside the ``k`` solve; the
   result is used only if the retry runs, so outputs match a serial run.

   One deliberate simplification versus Appel-George: residence may not
   change on a CFG *edge* (no edge splitting), so loads/stores live inside
   blocks only.  This loses a little optimality but keeps codegen simple;
   DESIGN.md records the substitution.

2. **Live-range splitting** (:func:`apply_residence`): every maximal
   in-register interval of a spilled value becomes a fresh virtual register
   connected through the spill slot (``ldslot``/``stslot``).  Clean values
   (no definition since the last load) skip the write-back.

3. Coloring happens downstream — :func:`optimal_spill_allocate` feeds the
   split function to iterated register coalescing, and
   :mod:`repro.regalloc.diff_coalesce` runs the paper's cost-driven
   coalescing loop instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import (TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Set,
                    Tuple)

import numpy as np

from repro.analysis.frequency import estimate_block_frequencies
from repro.analysis.liveness import LivenessInfo, compute_liveness
from repro.ir.function import Function
from repro.ir.instr import Instr, Reg
from repro.regalloc import highs
from repro.regalloc.base import AllocationResult
from repro.regalloc.iterated import ColorSelector, iterated_allocate
from repro.regalloc.spill import SpillSlotAllocator

if TYPE_CHECKING:
    from concurrent.futures import Future

__all__ = [
    "ResidencePlan",
    "decide_residence",
    "apply_residence",
    "optimal_spill_allocate",
]


#: default size cap on the residence ILP (variables); larger instances take
#: the greedy fallback
_MAX_ILP_VARS = 60_000


@dataclass
class ResidencePlan:
    """Residence vectors: ``residence[v][block][j]`` is True when ``v`` is in
    a register at point ``j`` of the block (point ``j`` precedes instruction
    ``j``; the final point is the block exit)."""

    residence: Dict[Reg, Dict[str, List[bool]]]
    spilled: Set[Reg]
    objective: float
    solver: str

    def is_resident(self, v: Reg, block: str, point: int) -> bool:
        """Whether ``v`` sits in a register at the given point.

        Values never spilled are always resident; for spilled values, points
        where the value is dead read as non-resident.
        """
        if v not in self.residence:
            return True
        vec = self.residence[v].get(block)
        return bool(vec and vec[point])


# ----------------------------------------------------------------------
# problem extraction shared by the ILP and the greedy fallback
# ----------------------------------------------------------------------


@dataclass
class _Points:
    """Liveness per program point for every block: the live int vregs, and
    how many int physical registers are live there (``phys``)."""

    live_at: Dict[Tuple[str, int], Set[Reg]] = field(default_factory=dict)
    phys: Dict[Tuple[str, int], int] = field(default_factory=dict)

    @classmethod
    def build(cls, fn: Function, liveness: LivenessInfo) -> "_Points":
        pts = cls()
        for b in fn.blocks:
            n = len(b.instrs)
            for j in range(n + 1):
                live = (liveness.instr_live_in[b.instrs[j].uid] if j < n
                        else liveness.live_out[b.name])
                ints = [r for r in live if r.cls == "int"]
                vregs = {r for r in ints if r.virtual}
                pts.live_at[(b.name, j)] = vregs
                pts.phys[(b.name, j)] = len(ints) - len(vregs)
        return pts


def _forced_points(fn: Function) -> Set[Tuple[Reg, str, int]]:
    """Points where residence is forced to 1: operand uses, definition
    results, and parameters at function entry."""
    forced: Set[Tuple[Reg, str, int]] = set()
    for b in fn.blocks:
        for j, instr in enumerate(b.instrs):
            for r in instr.uses():
                if r.virtual and r.cls == "int":
                    forced.add((r, b.name, j))
            for r in instr.defs():
                if r.virtual and r.cls == "int":
                    forced.add((r, b.name, j + 1))
    entry = fn.entry.name
    for p in fn.params:
        if p.virtual and p.cls == "int":
            forced.add((p, entry, 0))
    return forced


# ----------------------------------------------------------------------
# exact solution via HiGHS
# ----------------------------------------------------------------------


@dataclass
class _IlpModel:
    """The residence ILP: COO triplets, and the CSC ``matrix`` HiGHS reads.

    Row blocks in order: capacity per live point, loads, stores, edge
    equalities.  ``x_index`` maps ``(v, block, point)`` to its binary
    column; the continuous transition cost columns follow the ``n_x`` x
    columns.  Only the capacity rows depend on the budget ``k``: row
    ``i`` has ``cap_live[i]`` x columns and bound ``k - cap_phys[i]``.
    """

    x_index: Dict[Tuple[Reg, str, int], int]
    c: Any
    rows: Any
    cols: Any
    vals: Any
    lb: Any
    ub: Any
    var_lb: Any
    var_ub: Any
    cap_live: Any
    cap_phys: Any
    matrix: highs.CscMatrix

    @property
    def shape(self) -> Tuple[int, int]:
        return len(self.lb), len(self.c)

    def rebound(self, k: int) -> "_IlpModel":
        """The model at budget ``k``: everything is shared except ``ub``,
        whose capacity rows become what :func:`_build_ilp_model` gives at
        ``k``."""
        ub = self.ub.copy()
        ub[:len(self.cap_phys)] = k - self.cap_phys
        return replace(self, ub=ub)

    def needs_solver(self, k: int) -> bool:
        """False when the all-resident plan is optimal at budget ``k``.

        That holds when no capacity row can bind (no point has more live
        values than ``k`` minus its physical pressure) and no cost is
        negative: all-resident then meets every row and bound, and its
        objective 0 is a lower bound on the ILP's.
        """
        return bool((self.cap_live + self.cap_phys > k).any()
                    or (self.c < 0).any())


def _build_ilp_model(fn: Function, k: int, pts: _Points,
                     freq: Mapping[str, float],
                     forced: Set[Tuple[Reg, str, int]],
                     load_cost: float, store_cost: float,
                     max_ilp_vars: int) -> Optional[_IlpModel]:
    """Build the residence ILP; None when it exceeds ``max_ilp_vars``.

    Variable and constraint order never depends on set iteration order
    (every live set is walked sorted), or the solver's tie-breaks would
    vary with the process hash seed.
    """
    # variable layout: x vars first (binary), then transition cost vars;
    # the solver reads the integer columns off this layout.
    # The x columns of one point are contiguous, ascending in register
    # order, starting at base[(block, j)].
    x_index: Dict[Tuple[Reg, str, int], int] = {}
    base: Dict[Tuple[str, int], int] = {}
    for point, live in sorted(pts.live_at.items(), key=lambda it: it[0]):
        block, j = point
        base[point] = len(x_index)
        for v in sorted(live):
            x_index[(v, block, j)] = len(x_index)
    n_x = len(x_index)

    # transitions: (x_pre, x_post) pairs and their block frequency
    pre: List[int] = []
    post: List[int] = []
    weight: List[float] = []
    for b in fn.blocks:
        name = b.name
        w = freq.get(name, 1.0)
        for j, instr in enumerate(b.instrs):
            defs = instr.defs()
            after = pts.live_at[(name, j + 1)]
            for v in sorted(pts.live_at[(name, j)]):
                if v not in after:
                    continue  # value dies: no transition cost
                if v in defs:
                    continue  # def transitions are free (writes a register)
                pre.append(x_index[(v, name, j)])
                post.append(x_index[(v, name, j + 1)])
                weight.append(w)

    # one load and one store cost column per transition
    n_t = len(pre)
    n_vars = n_x + 2 * n_t
    if n_vars > max_ilp_vars:
        return None

    w_arr = np.array(weight, dtype=float)
    c = np.zeros(n_vars)
    c[n_x:n_x + n_t] = w_arr * load_cost
    c[n_x + n_t:] = w_arr * store_cost

    # capacity per point: sum of the point's x columns <= k - phys pressure
    cap_cols: List[int] = []
    cap_len: List[int] = []
    cap_phys: List[int] = []
    for point, live in pts.live_at.items():
        if not live:
            continue
        start = base[point]
        cap_cols.extend(range(start, start + len(live)))
        cap_len.append(len(live))
        cap_phys.append(pts.phys[point])
    n_cap = len(cap_len)
    cap_len_arr = np.array(cap_len, dtype=np.int64)
    cap_phys_arr = np.array(cap_phys, dtype=np.int64)

    # load: x_post - x_pre - l <= 0; store: x_pre - x_post - s <= 0
    pre_arr = np.array(pre, dtype=np.int64)
    post_arr = np.array(post, dtype=np.int64)
    t_arr = np.arange(n_t, dtype=np.int64)
    load_cols = np.stack([post_arr, pre_arr, n_x + t_arr], axis=1)
    store_cols = np.stack([pre_arr, post_arr, n_x + n_t + t_arr], axis=1)

    # edge equality: x[v, exit(P)] == x[v, entry(B)]
    edge_cols: List[int] = []
    succs, _ = fn.cfg()
    for p in fn.blocks:
        np_ = len(p.instrs)
        for s in succs[p.name]:
            for v in sorted(pts.live_at[(s, 0)]):
                xp = x_index.get((v, p.name, np_))
                if xp is None:
                    continue
                edge_cols.append(xp)
                edge_cols.append(x_index[(v, s, 0)])
    n_e = len(edge_cols) // 2

    n_ineq = n_cap + 2 * n_t
    n_rows = n_ineq + n_e
    rows = np.concatenate([
        np.repeat(np.arange(n_cap, dtype=np.int64), cap_len_arr),
        np.repeat(np.arange(n_cap, n_ineq, dtype=np.int64), 3),
        np.repeat(np.arange(n_ineq, n_rows, dtype=np.int64), 2),
    ])
    cols = np.concatenate([
        np.array(cap_cols, dtype=np.int64),
        load_cols.reshape(-1),
        store_cols.reshape(-1),
        np.array(edge_cols, dtype=np.int64),
    ])
    vals = np.concatenate([
        np.ones(len(cap_cols)),
        np.tile([1.0, -1.0, -1.0], 2 * n_t),
        np.tile([1.0, -1.0], n_e),
    ])
    lb = np.full(n_rows, -np.inf)
    lb[n_ineq:] = 0.0
    ub = np.zeros(n_rows)
    ub[:n_cap] = k - cap_phys_arr

    var_lb = np.zeros(n_vars)
    var_ub = np.ones(n_vars)
    for key in forced:
        col = x_index.get(key)
        if col is not None:
            var_lb[col] = 1.0

    return _IlpModel(x_index, c, rows, cols, vals, lb, ub, var_lb, var_ub,
                     cap_len_arr, cap_phys_arr,
                     highs.CscMatrix.from_coo(rows, cols, vals,
                                              (n_rows, n_vars)))


def _run_highs(model: _IlpModel) -> Optional[highs.MipSolution]:
    """Solve ``model`` with HiGHS: the optimal solution, or None when HiGHS
    proved none (a time-limited incumbent also counts as none).

    Reads nothing but the model's arrays, so it can run on a worker thread
    while the caller allocates (HiGHS releases the GIL).
    """
    res = highs.solve_mip(model.c, model.matrix, model.lb, model.ub,
                          model.var_lb, model.var_ub,
                          n_int=len(model.x_index), time_limit=60.0)
    return res if res is not None and res.optimal else None


def _ilp_plan(fn: Function, pts: _Points, model: _IlpModel,
              res: highs.MipSolution) -> ResidencePlan:
    """The residence plan a HiGHS solution of ``model`` encodes."""
    # vectors default to False; True only at live points where the value is
    # resident.  Dead points read as non-resident so segment walking starts
    # a fresh segment at every definition after a liveness gap.
    x_index = model.x_index
    resident_at = (res.x > 0.5).tolist()
    residence: Dict[Reg, Dict[str, List[bool]]] = {}
    spilled: Set[Reg] = set()
    for b in fn.blocks:
        n = len(b.instrs)
        for j in range(n + 1):
            for v in sorted(pts.live_at[(b.name, j)]):
                vec = residence.setdefault(v, {}).setdefault(
                    b.name, [False] * (n + 1)
                )
                resident = resident_at[x_index[(v, b.name, j)]]
                vec[j] = resident
                if not resident:
                    spilled.add(v)
    residence = {v: blocks for v, blocks in residence.items() if v in spilled}
    return ResidencePlan(residence, spilled, float(res.fun), "ilp")


# ----------------------------------------------------------------------
# greedy fallback: spill-everywhere victims until pressure fits
# ----------------------------------------------------------------------


def _solve_greedy(fn: Function, k: int, pts: _Points,
                  freq: Mapping[str, float],
                  forced: Set[Tuple[Reg, str, int]]) -> ResidencePlan:
    forced_by_reg: Dict[Reg, Set[Tuple[str, int]]] = {}
    for v, b, j in forced:
        forced_by_reg.setdefault(v, set()).add((b, j))

    spilled: Set[Reg] = set()

    def pressure(block: str, j: int) -> int:
        live = pts.live_at[(block, j)]
        count = pts.phys[(block, j)]
        for v in live:
            if v not in spilled:
                count += 1
            elif (block, j) in forced_by_reg.get(v, ()):  # transient reload
                count += 1
        return count

    from repro.regalloc.base import spill_cost_estimates

    costs = spill_cost_estimates(fn, freq)
    while True:
        worst: Optional[Tuple[str, int]] = None
        worst_excess = 0
        for (block, j) in pts.live_at:
            excess = pressure(block, j) - k
            if excess > worst_excess:
                worst_excess = excess
                worst = (block, j)
        if worst is None:
            break
        candidates = [
            v for v in pts.live_at[worst]
            if v not in spilled and worst not in forced_by_reg.get(v, ())
        ]
        if not candidates:
            break  # leave residual pressure for the coloring stage to spill
        victim = min(candidates, key=lambda v: (costs.get(v, 1.0), v))
        spilled.add(victim)

    residence: Dict[Reg, Dict[str, List[bool]]] = {}
    for v in sorted(spilled):
        vecs: Dict[str, List[bool]] = {}
        for b in fn.blocks:
            n = len(b.instrs)
            vec = [False] * (n + 1)
            for j in range(n + 1):
                if v in pts.live_at[(b.name, j)]:
                    vec[j] = (b.name, j) in forced_by_reg.get(v, set())
            vecs[b.name] = vec
        residence[v] = vecs
    plan = ResidencePlan(residence, spilled, 0.0, "greedy")
    # report the same weighted load/store objective the ILP minimises, so
    # exact and greedy plans are directly comparable
    plan.objective = residence_plan_cost(fn, plan, freq)
    return plan


def residence_plan_cost(fn: Function, plan: ResidencePlan,
                        freq: Optional[Mapping[str, float]] = None,
                        load_cost: float = 1.0,
                        store_cost: float = 1.0) -> float:
    """Weighted loads+stores a residence plan implies — the ILP's objective,
    evaluated on *any* plan so exact and greedy solutions are comparable.

    Counts memory→register transitions (loads) and register→memory
    transitions of still-live values (stores) across every instruction,
    plus the block-entry reloads plans with inconsistent edges need.
    """
    if freq is None:
        freq = estimate_block_frequencies(fn)
    liveness = compute_liveness(fn)
    pts = _Points.build(fn, liveness)
    _, preds = fn.cfg()
    total = 0.0
    for b in fn.blocks:
        w = freq.get(b.name, 1.0)
        n = len(b.instrs)
        for j, instr in enumerate(b.instrs):
            defs = set(instr.defs())
            # sorted: the objective is a float sum, and addition order
            # must not depend on set iteration order
            for v in sorted(pts.live_at[(b.name, j)]):
                if v not in pts.live_at[(b.name, j + 1)]:
                    continue
                pre = plan.is_resident(v, b.name, j)
                post = plan.is_resident(v, b.name, j + 1)
                if v in defs:
                    continue  # def transitions are free
                if post and not pre:
                    total += w * load_cost
                elif pre and not post:
                    total += w * store_cost
        # block-entry reloads when some predecessor leaves the value in memory
        for v in sorted(pts.live_at[(b.name, 0)]):
            if not plan.is_resident(v, b.name, 0) or v not in plan.spilled:
                continue
            ps = preds[b.name]
            if ps and any(
                not plan.is_resident(v, p, len(fn.block(p).instrs))
                for p in ps
            ):
                total += w * load_cost
    return total


@dataclass
class _Residence:
    """One function's residence problem, built once and decided per budget.

    Holds the points, the forced points and, with the ILP on, the model
    (None when it is off or the model exceeds ``max_ilp_vars``); each
    budget re-bounds the model's capacity rows instead of rebuilding it.
    Nothing here changes after :meth:`build`, so a worker thread may run
    :meth:`solve` while the caller decides another budget.
    """

    fn: Function
    freq: Mapping[str, float]
    pts: _Points
    forced: Set[Tuple[Reg, str, int]]
    model: Optional[_IlpModel]

    @classmethod
    def build(cls, fn: Function, k: int, freq: Mapping[str, float],
              use_ilp: bool, load_cost: float, store_cost: float,
              max_ilp_vars: int) -> "_Residence":
        pts = _Points.build(fn, compute_liveness(fn))
        forced = _forced_points(fn)
        model = (_build_ilp_model(fn, k, pts, freq, forced, load_cost,
                                  store_cost, max_ilp_vars)
                 if use_ilp else None)
        return cls(fn, freq, pts, forced, model)

    def needs_solver(self, k: int) -> bool:
        """Whether deciding at budget ``k`` calls HiGHS."""
        return self.model is not None and self.model.needs_solver(k)

    def solve(self, k: int) -> Optional[highs.MipSolution]:
        """HiGHS on the model at budget ``k`` (see :func:`_run_highs`)."""
        return _run_highs(self.model.rebound(k))

    def decide(self, k: int,
               solved: Optional[Future] = None) -> ResidencePlan:
        """The plan at budget ``k``; ``solved``, when given, is a pending
        :meth:`solve` of ``k`` to use instead of solving here."""
        model = self.model
        if model is not None:
            if not model.needs_solver(k):
                return ResidencePlan({}, set(), 0.0, "ilp")
            res = solved.result() if solved is not None else self.solve(k)
            if res is not None:
                return _ilp_plan(self.fn, self.pts, model, res)
        return _solve_greedy(self.fn, k, self.pts, self.freq, self.forced)


def decide_residence(fn: Function, k: int,
                     freq: Optional[Mapping[str, float]] = None,
                     use_ilp: bool = True,
                     load_cost: float = 1.0,
                     store_cost: float = 1.0,
                     max_ilp_vars: int = _MAX_ILP_VARS) -> ResidencePlan:
    """Decide, for every live point of every virtual register, whether the
    value is in a register — the Appel-George step 1."""
    if freq is None:
        freq = estimate_block_frequencies(fn)
    return _Residence.build(fn, k, freq, use_ilp, load_cost, store_cost,
                            max_ilp_vars).decide(k)


# ----------------------------------------------------------------------
# live-range splitting codegen
# ----------------------------------------------------------------------


class _UnionFind:
    def __init__(self) -> None:
        self.parent: Dict[object, object] = {}

    def find(self, x: object) -> object:
        self.parent.setdefault(x, x)
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: object, b: object) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def _segment_walk(fn: Function, plan: ResidencePlan, v: Reg):
    """Yield, per block, the token active at every point of the block.

    Token identities: ``("e", v, block)`` for an entry segment,
    ``("m", v, block, j)`` for a segment starting after instruction ``j``
    (reload or defining instruction).  Returns ``{block: [token_or_None per
    point]}``.
    """
    out: Dict[str, List[Optional[tuple]]] = {}
    for b in fn.blocks:
        vecs = plan.residence[v].get(b.name)
        n = len(b.instrs)
        if vecs is None:
            out[b.name] = [None] * (n + 1)
            continue
        tokens: List[Optional[tuple]] = [None] * (n + 1)
        current: Optional[tuple] = ("e", v, b.name) if vecs[0] else None
        tokens[0] = current
        for j, instr in enumerate(b.instrs):
            pre, post = vecs[j], vecs[j + 1]
            if post and not pre:
                current = ("m", v, b.name, j)
            elif not post:
                current = None
            tokens[j + 1] = current
        out[b.name] = tokens
    return out


def apply_residence(fn: Function, plan: ResidencePlan,
                    slots: Optional[SpillSlotAllocator] = None,
                    next_vreg: Optional[int] = None) -> Tuple[Function, int]:
    """Split live ranges according to ``plan`` — the Appel-George step 2.

    Every in-register segment of a spilled value gets a fresh virtual
    register; transitions become ``ldslot`` (memory→register) and, for dirty
    segments, ``stslot`` (register→memory).  Returns the rewritten function
    and the next unused vreg id.
    """
    slots = slots or SpillSlotAllocator()
    if next_vreg is None:
        next_vreg = fn.max_vreg_id() + 1
    new_fn = fn.copy()
    if not plan.spilled:
        return new_fn, next_vreg

    liveness = compute_liveness(new_fn)
    pts = _Points.build(new_fn, liveness)

    # pass 1: token maps, cross-edge unions, dirty roots
    succs, preds_map = new_fn.cfg()
    uf = _UnionFind()
    token_maps: Dict[Reg, Dict[str, List[Optional[tuple]]]] = {}
    entry_loads: Dict[str, List[Tuple[Reg, tuple]]] = {}
    exit_stores: Dict[str, List[Tuple[Reg, tuple]]] = {}
    for v in sorted(plan.spilled):
        token_maps[v] = _segment_walk(new_fn, plan, v)
        for p in new_fn.blocks:
            n = len(p.instrs)
            exit_tok = token_maps[v][p.name][n]
            if exit_tok is None:
                continue
            in_memory = False
            for s in succs[p.name]:
                entry_tok = token_maps[v][s][0]
                if entry_tok is not None:
                    uf.union(exit_tok, entry_tok)
                elif v in pts.live_at[(s, 0)]:
                    in_memory = True
            if in_memory:
                exit_stores.setdefault(p.name, []).append((v, exit_tok))
        # A block entered with the value nominally in a register, but with
        # some predecessor leaving it in memory, needs a reload at its head;
        # mirror-image, a block left with the value in a register that some
        # successor expects in memory writes it back at its end (if dirty).
        # ILP plans never hit either (edge-equality constraints); greedy
        # spill-everywhere plans do, since their forced points are reloads.
        for b in new_fn.blocks:
            entry_tok = token_maps[v][b.name][0]
            if entry_tok is None:
                continue
            ps = preds_map[b.name]
            if ps and any(
                token_maps[v][p][len(new_fn.block(p).instrs)] is None
                for p in ps
            ):
                entry_loads.setdefault(b.name, []).append((v, entry_tok))

    dirty: Set[object] = set()
    for v in sorted(plan.spilled):
        for b in new_fn.blocks:
            toks = token_maps[v][b.name]
            for j, instr in enumerate(b.instrs):
                if v in instr.defs():
                    tok = toks[j + 1]
                    if tok is not None:
                        dirty.add(uf.find(tok))
    # parameters arrive in registers with no memory copy: their entry
    # segment is dirty by definition
    for p in new_fn.params:
        if p in plan.spilled:
            tok = token_maps[p][new_fn.entry.name][0]
            if tok is not None:
                dirty.add(uf.find(tok))

    seg_regs: Dict[object, Reg] = {}
    # a spilled parameter's entry segment *is* the parameter register —
    # the incoming value already lives there
    for p in new_fn.params:
        if p in plan.spilled:
            tok = token_maps[p][new_fn.entry.name][0]
            if tok is not None:
                seg_regs[uf.find(tok)] = p

    def reg_of(token: tuple) -> Reg:
        nonlocal next_vreg
        root = uf.find(token)
        if root not in seg_regs:
            seg_regs[root] = Reg(next_vreg, virtual=True, cls="int")
            next_vreg += 1
        return seg_regs[root]

    # pass 2: rewrite
    for b in new_fn.blocks:
        new_instrs: List[Instr] = [
            Instr("ldslot", dst=reg_of(tok), imm=slots.slot_for(v))
            for v, tok in entry_loads.get(b.name, ())
        ]
        n = len(b.instrs)
        for j, instr in enumerate(b.instrs):
            mapping: Dict[Reg, Reg] = {}
            def_overrides: Dict[Reg, Reg] = {}
            post_ops: List[Instr] = []
            for v in sorted(plan.spilled):
                toks = token_maps[v][b.name]
                pre_tok, post_tok = toks[j], toks[j + 1]
                used = v in instr.uses()
                defd = v in instr.defs()
                if used:
                    if pre_tok is None:
                        raise RuntimeError(
                            f"{fn.name}/{b.name}: plan leaves use of {v} "
                            f"at instr {j} in memory"
                        )
                    mapping[v] = reg_of(pre_tok)
                if defd:
                    if post_tok is None:
                        if v in pts.live_at[(b.name, j + 1)]:
                            raise RuntimeError(
                                f"{fn.name}/{b.name}: plan leaves def of {v} "
                                f"at instr {j} in memory"
                            )
                        # dead store: the value is never read again, but the
                        # instruction still writes a register — give it a
                        # fresh throwaway name (the use operands, if any,
                        # keep the mapping chosen above)
                        def_overrides[v] = Reg(next_vreg, virtual=True,
                                               cls="int")
                        next_vreg += 1
                    else:
                        def_overrides[v] = reg_of(post_tok)
                # transitions across this instruction
                if pre_tok is None and post_tok is not None and not defd:
                    post_ops.append(
                        Instr("ldslot", dst=reg_of(post_tok),
                              imm=slots.slot_for(v))
                    )
                if pre_tok is not None and post_tok is None:
                    still_live = v in pts.live_at[(b.name, j + 1)]
                    if still_live and uf.find(pre_tok) in dirty:
                        post_ops.append(
                            Instr("stslot", srcs=(reg_of(pre_tok),),
                                  imm=slots.slot_for(v))
                        )
            rewritten = instr.rewrite(mapping) if mapping else instr
            if def_overrides:
                rewritten = rewritten.copy()
                if rewritten.op == "call":
                    # call defs live in call_defs, not dst; resolve from the
                    # *original* operands — the use mapping above may already
                    # have renamed a use-and-def register to its pre-token
                    rewritten.call_defs = tuple(
                        def_overrides.get(r, mapping.get(r, r))
                        for r in instr.call_defs
                    )
                else:
                    rewritten.dst = next(iter(def_overrides.values()))
            if j == n - 1 and rewritten.op in ("br", "ret", "beq", "bne",
                                               "blt", "bge", "bgt", "ble"):
                new_instrs.extend(post_ops)  # before the terminator
                new_instrs.append(rewritten)
            else:
                new_instrs.append(rewritten)
                new_instrs.extend(post_ops)
        b.instrs = new_instrs
        at = len(new_instrs) - (b.terminator() is not None)
        new_instrs[at:at] = [
            Instr("stslot", srcs=(reg_of(tok),), imm=slots.slot_for(v))
            for v, tok in exit_stores.get(b.name, ())
            if uf.find(tok) in dirty
        ]

    new_fn.validate()
    return new_fn, next_vreg


def optimal_spill_allocate(fn: Function, k: int,
                           selector: Optional[ColorSelector] = None,
                           use_ilp: bool = True,
                           load_cost: float = 1.0,
                           store_cost: float = 1.0,
                           freq: Optional[Mapping[str, float]] = None
                           ) -> AllocationResult:
    """The full O-spill pipeline: optimal residence → splitting → coloring.

    Coloring uses iterated register coalescing, whose conservative
    coalescing stands in for Appel-George's aggressive-then-undo loop;
    :func:`repro.regalloc.diff_coalesce.differential_coalesce_allocate` runs
    the paper's cost-driven variant instead.
    """
    # imported here: concurrent.futures would add ~10 ms to every
    # ``import repro``
    from concurrent.futures import ThreadPoolExecutor

    if freq is None:
        freq = estimate_block_frequencies(fn)
    problem = _Residence.build(fn, k, freq, use_ilp, load_cost, store_cost,
                               _MAX_ILP_VARS)

    def attempt(budget: int, plan: ResidencePlan) -> AllocationResult:
        split_fn, _ = apply_residence(fn, plan)
        result = iterated_allocate(split_fn, k, selector=selector,
                                   freq=dict(freq))
        result.stats["ospill_objective"] = plan.objective
        result.stats["ospill_solver"] = 1.0 if plan.solver == "ilp" else 0.0
        result.stats["ospill_spilled_ranges"] = float(len(plan.spilled))
        result.stats["ospill_budget"] = float(budget)
        return result

    def weighted_spill_cost(result: AllocationResult) -> float:
        f = freq
        return sum(
            f.get(block.name, 1.0)
            for block in result.fn.blocks
            for instr in block.instrs
            if instr.op in ("ldslot", "stslot")
        )

    # Residence plans bound MaxLive by k, but k-colorability is not implied
    # (Appel-George restore it with parallel copies at every block boundary,
    # which we deliberately avoid).  When the colorer had to add spills, a
    # plan with one register of slack sometimes colors cleanly; keep
    # whichever result executes less spill traffic.  The k-1 model binds
    # whenever the k model does, so its solve starts on a worker thread
    # before k's; leaving the block joins the thread, also on an exception,
    # so no thread is alive when a process pool forks.  Without a retry the
    # speculative result, or its exception, is dropped: a serial run never
    # solves that model.
    with ThreadPoolExecutor(max_workers=1) as pool:
        slack = (pool.submit(problem.solve, k - 1)
                 if k > 2 and problem.needs_solver(k) else None)
        best = attempt(k, problem.decide(k))
        if best.rounds > 1 and k > 2:
            retry = attempt(k - 1, problem.decide(k - 1, slack))
            if weighted_spill_cost(retry) < weighted_spill_cost(best):
                best = retry
    return best
