"""Parallel-move resolution: provably minimal shuffle code for join repairs.

A location mismatch at a join edge is a *parallel move*: every destination
register must simultaneously receive the value another register held before
any of the moves ran.  Emitting it as a sequence of real instructions is the
classic shuffle-code problem (Buchwald et al., *Optimal Shuffle Code with
Permutation Instructions*): decompose the move graph into trees/chains and
cycles, emit one ``mov`` per tree edge in dependency-safe order, and resolve
each residual cycle with whichever mechanism the machine offers cheapest —

* a **free scratch register** (liveness provides one, or — for injective
  mappings — the terminal of any chain can be clobbered before its own final
  write): a length-``L`` cycle costs ``L + 1`` moves;
* a **fan-out copy**: when some tree edge already duplicates a cycle
  member's value, that copy doubles as the save and the cycle costs ``L``
  moves (non-injective mappings only);
* **xor-swap triples** when no scratch exists anywhere: ``3 (L - 1)``
  instructions per cycle, no temporary needed;
* a single ``permi`` **permutation instruction** when the machine feature
  flag (:class:`repro.machine.spec.LowEndConfig` ``has_permi``) is set:
  *all* cycles collapse into one instruction — and chains ride along too,
  each rotated through its tail inside the same permutation and repaired
  with one duplicating ``mov`` (the tail's value must survive in two
  places, which no bijective instruction can produce).  A parallel move
  with ``C`` chains and any cycle therefore costs exactly ``C + 1``
  instructions: permutations never duplicate values, so ``C`` moves is a
  hard floor and one more op is forced as soon as anything cyclic (or any
  chain longer than one move) remains.

Minimality is with respect to this instruction repertoire — sequences built
from register copies, register swaps (priced at their 3-instruction xor
lowering) and full-file permutation instructions — and is verified
exhaustively for small register files by :func:`search_minimal_cost`, a
Dijkstra search over abstract register-file states.  See ``docs/moves.md``
for the cost model and the optimality-gap methodology.

:func:`resolve_move_runs` applies the resolver to allocated functions: every
maximal run of consecutive register-to-register ``mov`` instructions is
collapsed to its composite parallel move and re-emitted minimally, but only
when that is *strictly shorter* — untouched runs keep their instructions
(and uids) bit-identical, which keeps mibench ``CycleReport``s
identical-or-better.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.ir.function import Function
from repro.ir.instr import Instr, Reg

__all__ = [
    "MoveOp",
    "ResolvedMoves",
    "MoveRunStats",
    "decompose_parallel_move",
    "resolve_parallel_move",
    "lower_ops",
    "apply_ops",
    "minimal_instruction_count",
    "op_cost",
    "search_minimal_cost",
    "resolve_move_runs",
]

#: abstract resolver operations: ``("mov", dst, src)``, ``("swap", a, b)``
#: (lowered to the 3-instruction xor triple) or ``("permi", perm)`` (one
#: permutation instruction whose tuple ``perm`` satisfies R'[i] = R[perm[i]]).
MoveOp = Tuple


def op_cost(op: MoveOp) -> int:
    """Instruction count of one abstract op under the lowering."""
    return 3 if op[0] == "swap" else 1


def _check_mapping(mapping: Dict[int, int]) -> Dict[int, int]:
    for d, s in mapping.items():
        if d < 0 or s < 0:
            raise ValueError(f"negative register in move {d} <- {s}")
    return {d: s for d, s in mapping.items() if d != s}


def decompose_parallel_move(mapping: Dict[int, int]
                            ) -> Tuple[List[Tuple[int, int]],
                                       List[Tuple[int, ...]]]:
    """Split ``{dst: src}`` into safe-ordered tree moves and cycles.

    Returns ``(tree, cycles)``: ``tree`` is a list of ``(dst, src)`` edges
    in an order that never clobbers a pending source (terminals first);
    ``cycles`` is a list of register tuples ``(c0, c1, ..., c_{L-1})``
    where each ``c_i`` must receive the old value of ``c_{i-1}`` (indices
    mod ``L``), each cycle canonically rotated to start at its smallest
    member and the list sorted by that member.  Self-moves are dropped.
    """
    edges = _check_mapping(mapping)
    # how many pending edges read each register
    src_count: Dict[int, int] = {}
    for s in edges.values():
        src_count[s] = src_count.get(s, 0) + 1

    tree: List[Tuple[int, int]] = []
    pending = dict(edges)
    # a dst is safe to write once nothing still reads its old value
    ready = [d for d in sorted(pending) if src_count.get(d, 0) == 0]
    heapq.heapify(ready)
    while ready:
        d = heapq.heappop(ready)
        s = pending.pop(d)
        tree.append((d, s))
        src_count[s] -= 1
        if src_count[s] == 0 and s in pending:
            heapq.heappush(ready, s)

    # everything left is cyclic: each remaining dst is read exactly once,
    # by another remaining dst
    cycles: List[Tuple[int, ...]] = []
    seen: Set[int] = set()
    for start in sorted(pending):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        cur = pending[start]
        while cur != start:
            cyc.append(cur)
            seen.add(cur)
            cur = pending[cur]
        # cyc currently walks src pointers: cyc[i+1] is the src of cyc[i],
        # i.e. cyc[i] receives old cyc[i+1].  Canonical form wants c_i to
        # receive old c_{i-1}: reverse the walk, keep the smallest first.
        cyc = [cyc[0]] + list(reversed(cyc[1:]))
        cycles.append(tuple(cyc))
    return tree, cycles


@dataclass(frozen=True)
class ResolvedMoves:
    """A parallel move compiled to an abstract op sequence."""

    mapping: Tuple[Tuple[int, int], ...]   # sorted (dst, src) pairs
    ops: Tuple[MoveOp, ...]
    scratch: Optional[int] = None          # external scratch actually used
    used_permi: bool = False
    strategy: str = "trivial"              # permi | scratch | chain | alias | swap | trivial

    @property
    def n_instructions(self) -> int:
        """Instruction count after lowering (swap = 3, everything else 1)."""
        return sum(op_cost(op) for op in self.ops)


def _cycle_with_save(cycle: Tuple[int, ...], save: int) -> List[MoveOp]:
    """Resolve a cycle whose member ``cycle[0]``'s old value sits in
    ``save``: shift backwards, reading the save last.  ``L`` moves."""
    k = len(cycle)
    ops: List[MoveOp] = []
    for i in range(0, k - 1):
        # c_{(0 - i) mod k} <- c_{(0 - i - 1) mod k}
        ops.append(("mov", cycle[-i % k], cycle[(-i - 1) % k]))
    ops.append(("mov", cycle[1 % k], save))
    return ops


def _cycle_with_swaps(cycle: Tuple[int, ...]) -> List[MoveOp]:
    """Resolve a cycle with pivot swaps: ``L - 1`` swaps on ``cycle[0]``."""
    return [("swap", cycle[0], cycle[i]) for i in range(1, len(cycle))]


def _chains(edges: Dict[int, int]) -> List[List[Tuple[int, int]]]:
    """The disjoint chains of an injective mapping.

    Each chain is a list of ``(dst, src)`` edges terminal-first; the last
    edge's source is the chain's *tail*, a register that is read but never
    written (its value must survive the move).  Cycle members never appear:
    they are all sources of other edges.
    """
    src_set = set(edges.values())
    chains: List[List[Tuple[int, int]]] = []
    for d in sorted(edges):
        if d in src_set:
            continue
        chain = []
        cur = d
        while cur in edges:
            chain.append((cur, edges[cur]))
            cur = edges[cur]
        chains.append(chain)
    return chains


def _permi_plan(edges: Dict[int, int],
                cycles: List[Tuple[int, ...]],
                reg_n: int) -> Optional[Tuple[MoveOp, ...]]:
    """The permutation-instruction plan for an injective mapping, if it pays.

    Cycles fold into one ``permi`` for free; a chain of ``k >= 2`` moves
    folds too, rotated through its tail, at the price of one repair ``mov``
    that duplicates the tail's value back (``permi`` is a bijection and
    cannot duplicate).  The plan is used when any cycle exists, or when the
    folded chains save strictly more than the ``permi`` itself costs —
    which makes the emitted length exactly ``1 + #chains``, the proven
    optimum (each chain's tail duplication forces one ``mov``, and any
    cycle or multi-move chain forces one more op on top).

    Returns ``None`` when some cycle leaves the ``permi`` window or plain
    moves are just as short (ties prefer the boring encoding).
    """
    if not all(c < reg_n for cyc in cycles for c in cyc):
        return None
    chains = _chains(edges)
    fold = [ch for ch in chains
            if len(ch) >= 2
            and all(d < reg_n for d, _ in ch) and ch[-1][1] < reg_n]
    savings = sum(len(ch) - 1 for ch in fold)
    if not cycles and savings <= 1:
        return None

    ops: List[MoveOp] = []
    folded = {id(ch) for ch in fold}
    for ch in chains:
        if id(ch) not in folded:
            ops.extend(("mov", d, s) for d, s in ch)
    perm = list(range(reg_n))
    for cyc in cycles:
        k = len(cyc)
        for i, c in enumerate(cyc):
            perm[c] = cyc[(i - 1) % k]       # R'[c_i] = R[c_{i-1}]
    for ch in fold:
        for d, s in ch:
            perm[d] = s
        perm[ch[-1][1]] = ch[0][0]           # tail takes the dead terminal
    ops.append(("permi", tuple(perm)))
    for ch in fold:
        # after the rotation the tail's old value sits in the last dst;
        # copy it home (the one unavoidable duplication per chain)
        ops.append(("mov", ch[-1][1], ch[-1][0]))
    return tuple(ops)


def resolve_parallel_move(mapping: Dict[int, int],
                          scratch: Optional[int] = None,
                          has_permi: bool = False,
                          reg_n: Optional[int] = None) -> ResolvedMoves:
    """Compile a parallel move to a minimal abstract op sequence.

    ``mapping`` maps destination register to source register; sources may
    repeat (a fan-out), destinations cannot.  ``scratch`` names a register
    liveness proved dead across the move (it may be clobbered freely).
    With ``has_permi``, cycles whose members all lie below ``reg_n`` are
    folded into one permutation instruction.

    For injective mappings (partial register permutations — the join-repair
    case) the emitted sequence is provably minimal for the mov/swap/permi
    cost model; :func:`minimal_instruction_count` is its closed form and
    :func:`search_minimal_cost` the exhaustive cross-check.
    """
    edges = _check_mapping(dict(mapping))
    if scratch is not None and (scratch in edges or scratch in edges.values()):
        raise ValueError(f"scratch r{scratch} participates in the move")
    if has_permi and reg_n is None:
        raise ValueError("has_permi needs reg_n for the permutation width")

    tree, cycles = decompose_parallel_move(edges)
    srcs = list(edges.values())
    injective = len(set(srcs)) == len(srcs)

    if has_permi and injective and edges:
        assert reg_n is not None
        plan = _permi_plan(edges, cycles, reg_n)
        if plan is not None:
            return ResolvedMoves(
                mapping=tuple(sorted(edges.items())),
                ops=plan,
                used_permi=True,
                strategy="permi",
            )

    if not cycles:
        return ResolvedMoves(
            mapping=tuple(sorted(edges.items())),
            ops=tuple(("mov", d, s) for d, s in tree),
            strategy="trivial" if tree else "trivial",
        )

    src_set = set(srcs)
    # fan-out saves: tree dsts that duplicate a cycle member's value
    cycle_members: Set[int] = set()
    for cyc in cycles:
        cycle_members.update(cyc)
    alias: Dict[int, int] = {}   # cycle member -> tree dst holding its value
    for d, s in tree:
        if s in cycle_members and s not in alias:
            alias[s] = d

    permi_cycles: List[Tuple[int, ...]] = []
    other_cycles: List[Tuple[int, ...]] = []
    for cyc in cycles:
        if has_permi and reg_n is not None and all(c < reg_n for c in cyc):
            permi_cycles.append(cyc)
        else:
            other_cycles.append(cyc)

    ops: List[MoveOp] = []
    strategies: List[str] = []

    # an injective mapping with any chain at all provides an internal
    # scratch: the chain terminal's old value is dead, so the whole chain
    # can be deferred until after the cycles, its terminal serving as the
    # temporary in the meantime
    deferred: List[Tuple[int, int]] = []
    internal_scratch: Optional[int] = None
    needs_scratch = bool(other_cycles) and scratch is None and not any(
        c in alias for cyc in other_cycles for c in cyc
    )
    if needs_scratch and injective and tree:
        # tree edges of an injective mapping form disjoint chains, emitted
        # terminal-first; the first edge's dst is a chain terminal.  Defer
        # that terminal's entire chain (a contiguous prefix-by-dependency:
        # exactly the edges reachable by following src pointers).
        term, s = tree[0]
        chain = [(term, s)]
        chain_dsts = {term}
        cur = s
        while cur in edges and cur not in cycle_members:
            chain.append((cur, edges[cur]))
            chain_dsts.add(cur)
            cur = edges[cur]
        deferred = chain
        internal_scratch = term
        tree = [e for e in tree if e[0] not in chain_dsts]

    for d, s in tree:
        ops.append(("mov", d, s))

    if permi_cycles:
        assert reg_n is not None
        perm = list(range(reg_n))
        for cyc in permi_cycles:
            k = len(cyc)
            for i, c in enumerate(cyc):
                perm[c] = cyc[(i - 1) % k]   # R'[c_i] = R[c_{i-1}]
        ops.append(("permi", tuple(perm)))
        strategies.append("permi")

    temp = scratch if scratch is not None else internal_scratch
    for cyc in other_cycles:
        saved = next((c for c in cyc if c in alias), None)
        if saved is not None:
            # rotate so the aliased member leads, then shift through it
            i = cyc.index(saved)
            rot = cyc[i:] + cyc[:i]
            ops.extend(_cycle_with_save(rot, alias[saved]))
            strategies.append("alias")
        elif temp is not None:
            ops.append(("mov", temp, cyc[0]))
            ops.extend(_cycle_with_save(cyc, temp))
            strategies.append("scratch" if scratch is not None else "chain")
        else:
            ops.extend(_cycle_with_swaps(cyc))
            strategies.append("swap")

    for d, s in deferred:
        ops.append(("mov", d, s))

    strategy = strategies[0] if len(set(strategies)) == 1 else "mixed"
    return ResolvedMoves(
        mapping=tuple(sorted(edges.items())),
        ops=tuple(ops),
        scratch=scratch if scratch is not None and any(
            s == "scratch" for s in strategies) else None,
        used_permi=bool(permi_cycles),
        strategy=strategy,
    )


def lower_ops(ops: Sequence[MoveOp], cls: str = "int") -> List[Instr]:
    """Lower abstract ops to instructions.

    ``swap`` becomes the exact 3-xor triple the symbolic checker
    recognises (``xor a,(a,b); xor b,(b,a); xor a,(a,b)``); ``permi``
    becomes one ``permi`` instruction carrying its permutation as the
    immediate.
    """
    out: List[Instr] = []
    for op in ops:
        if op[0] == "mov":
            _, d, s = op
            out.append(Instr("mov", dst=Reg(d, virtual=False, cls=cls),
                             srcs=(Reg(s, virtual=False, cls=cls),)))
        elif op[0] == "swap":
            _, a_id, b_id = op
            a = Reg(a_id, virtual=False, cls=cls)
            b = Reg(b_id, virtual=False, cls=cls)
            out.append(Instr("xor", dst=a, srcs=(a, b)))
            out.append(Instr("xor", dst=b, srcs=(b, a)))
            out.append(Instr("xor", dst=a, srcs=(a, b)))
        elif op[0] == "permi":
            out.append(Instr("permi", imm=tuple(op[1])))
        else:
            raise ValueError(f"unknown abstract op {op!r}")
    return out


def apply_ops(ops: Sequence[MoveOp], state: Dict[int, object]
              ) -> Dict[int, object]:
    """Execute abstract ops over a symbolic register file (for oracles)."""
    st = dict(state)
    for op in ops:
        if op[0] == "mov":
            _, d, s = op
            st[d] = st[s]
        elif op[0] == "swap":
            _, a, b = op
            st[a], st[b] = st[b], st[a]
        elif op[0] == "permi":
            perm = op[1]
            old = dict(st)
            for i, p in enumerate(perm):
                if p != i:
                    st[i] = old[p]
        else:
            raise ValueError(f"unknown abstract op {op!r}")
    return st


def minimal_instruction_count(mapping: Dict[int, int],
                              scratch_available: bool = False,
                              has_permi: bool = False) -> int:
    """Closed-form minimal instruction count of a parallel move.

    Exact for injective mappings (partial permutations): ``T`` tree moves
    plus, per length-``L`` cycle, ``L + 1`` moves with a scratch register
    (external, or internal whenever ``T >= 1``) and ``3 (L - 1)``
    instructions otherwise.  With ``permi`` (assumed wide enough to cover
    every involved register) the optimum is ``C + 1`` — one permutation
    plus one duplicating repair move per chain — whenever any cycle exists
    or folding chains into the permutation saves more than the ``permi``
    costs; plain ``T`` moves otherwise.  For fan-out mappings the fan-out
    save makes an aliased cycle cost ``L``; the value is then the
    resolver's emitted length (an upper bound on the true optimum).
    """
    edges = _check_mapping(dict(mapping))
    tree, cycles = decompose_parallel_move(edges)
    total = len(tree)
    srcs = list(edges.values())
    injective = len(set(srcs)) == len(srcs)
    if has_permi and injective:
        src_set = set(srcs)
        n_chains = sum(1 for d in edges if d not in src_set)
        if cycles or (total - n_chains) > 1:
            return n_chains + 1
        return total
    if not cycles:
        return total
    if has_permi:
        # tree moves + one permutation instruction for all cycles
        return total + 1
    aliased = set()
    members = {c for cyc in cycles for c in cyc}
    for d, s in tree:
        if s in members:
            aliased.add(s)
    internal = injective and len(tree) > 0
    for cyc in cycles:
        if any(c in aliased for c in cyc):
            total += len(cyc)
        elif scratch_available or internal:
            total += len(cyc) + 1
        else:
            total += 3 * (len(cyc) - 1)
    return total


# ----------------------------------------------------------------------
# exhaustive minimality search (small register files)
# ----------------------------------------------------------------------

def search_minimal_cost(mapping: Dict[int, int], reg_n: int,
                        scratch: Optional[int] = None,
                        has_permi: bool = False,
                        limit: Optional[int] = None) -> int:
    """Dijkstra over abstract register-file states: the true minimal
    instruction count for ``mapping`` within the mov (1) / swap (3) /
    permi (1) repertoire.

    State is "which original register's value each register holds".
    Registers outside the mapping must end holding their own value —
    except ``scratch``, which may end holding anything.  Exponential in
    ``reg_n``; intended for ``reg_n <= 5`` (plus scratch) as the
    minimality oracle in tests and the ``moves`` fuzz target.
    """
    from itertools import permutations

    edges = _check_mapping(dict(mapping))
    n = max([reg_n] + [r + 1 for r in edges] + [s + 1 for s in edges.values()]
            + ([scratch + 1] if scratch is not None else []))
    if n > 8:
        raise ValueError(f"search space too large for {n} registers")
    start = tuple(range(n))

    def is_goal(state: Tuple[int, ...]) -> bool:
        for r in range(n):
            if r == scratch:
                continue
            want = edges.get(r, r)
            if state[r] != want:
                return False
        return True

    perms = None
    if has_permi:
        perms = [p for p in permutations(range(reg_n))
                 if any(p[i] != i for i in range(reg_n))]

    best: Dict[Tuple[int, ...], int] = {start: 0}
    heap: List[Tuple[int, Tuple[int, ...]]] = [(0, start)]
    while heap:
        cost, state = heapq.heappop(heap)
        if cost > best.get(state, -1):
            continue
        if is_goal(state):
            return cost
        if limit is not None and cost >= limit:
            continue

        def push(nxt: Tuple[int, ...], c: int) -> None:
            if c < best.get(nxt, c + 1):
                best[nxt] = c
                heapq.heappush(heap, (c, nxt))

        lst = list(state)
        for d in range(n):
            for s in range(n):
                if d == s or state[d] == state[s]:
                    continue
                lst[d] = state[s]
                push(tuple(lst), cost + 1)
                lst[d] = state[d]
        for a in range(n):
            for b in range(a + 1, n):
                if state[a] == state[b]:
                    continue
                lst[a], lst[b] = state[b], state[a]
                push(tuple(lst), cost + 3)
                lst[a], lst[b] = state[a], state[b]
        if perms:
            for p in perms:
                nxt = tuple(state[p[i]] if i < reg_n else state[i]
                            for i in range(n))
                if nxt != state:
                    push(nxt, cost + 1)
    raise RuntimeError(f"no resolution found for {edges!r}")  # pragma: no cover


# ----------------------------------------------------------------------
# allocated-function integration
# ----------------------------------------------------------------------

@dataclass
class MoveRunStats:
    """Outcome of :func:`resolve_move_runs` on one function."""

    runs_seen: int = 0
    runs_rewritten: int = 0
    movs_before: int = 0
    instrs_after: int = 0
    permis: int = 0
    swaps: int = 0
    scratch_cycles: int = 0
    stats: Dict[str, float] = field(default_factory=dict)

    @property
    def instructions_saved(self) -> int:
        return self.movs_before - self.instrs_after

    def as_stats(self) -> Dict[str, float]:
        """The outcome as ``AllocationResult.stats``-style float entries."""
        return {
            "moves_runs_seen": float(self.runs_seen),
            "moves_runs_rewritten": float(self.runs_rewritten),
            "moves_instructions_saved": float(self.instructions_saved),
            "moves_permis": float(self.permis),
        }


def _is_plain_move(instr: Instr, cls: str) -> bool:
    return (instr.op == "mov"
            and instr.dst is not None and not instr.dst.virtual
            and not instr.srcs[0].virtual
            and instr.dst.cls == cls and instr.srcs[0].cls == cls)


def _composite_mapping(instrs: Sequence[Instr]) -> Dict[int, int]:
    """The net parallel move of a sequential run of copies."""
    state: Dict[int, int] = {}
    for ins in instrs:
        s = ins.srcs[0].id
        state[ins.dst.id] = state.get(s, s)
    return {d: s for d, s in state.items() if d != s}


def resolve_move_runs(fn: Function, reg_n: int,
                      has_permi: bool = False,
                      cls: str = "int") -> MoveRunStats:
    """Rewrite maximal runs of consecutive physical copies minimally.

    Mutates ``fn`` in place.  A run is replaced only when the resolved
    sequence is *strictly shorter* than the original; equal-length runs
    keep their instructions (and uids) untouched, so simulated
    ``CycleReport``s are bit-identical-or-better.  A scratch register is
    any physical register below ``reg_n`` that liveness proves dead
    across the run.
    """
    stats = MoveRunStats()
    from repro.analysis.liveness import compute_liveness

    liveness = compute_liveness(fn)
    for block in fn.blocks:
        instrs = block.instrs
        # live set before each instruction index (backward walk)
        live: Set[Reg] = set(liveness.live_out[block.name])
        live_before: List[Set[Reg]] = [set()] * len(instrs)
        for i in range(len(instrs) - 1, -1, -1):
            live = (live - set(instrs[i].defs())) | set(instrs[i].uses())
            live_before[i] = set(live)

        out: List[Instr] = []
        i = 0
        while i < len(instrs):
            if not _is_plain_move(instrs[i], cls):
                out.append(instrs[i])
                i += 1
                continue
            j = i
            while j < len(instrs) and _is_plain_move(instrs[j], cls):
                j += 1
            run = instrs[i:j]
            if len(run) < 2:
                out.extend(run)
                i = j
                continue
            stats.runs_seen += 1
            stats.movs_before += len(run)
            mapping = _composite_mapping(run)
            involved = set(mapping) | set(mapping.values())
            scratch = next(
                (r for r in range(reg_n)
                 if r not in involved
                 and Reg(r, virtual=False, cls=cls) not in live_before[i]),
                None,
            )
            resolved = resolve_parallel_move(
                mapping, scratch=scratch, has_permi=has_permi, reg_n=reg_n,
            )
            if resolved.n_instructions < len(run):
                stats.runs_rewritten += 1
                stats.instrs_after += resolved.n_instructions
                stats.permis += sum(1 for op in resolved.ops
                                    if op[0] == "permi")
                stats.swaps += sum(1 for op in resolved.ops
                                   if op[0] == "swap")
                if resolved.scratch is not None:
                    stats.scratch_cycles += 1
                out.extend(lower_ops(resolved.ops, cls=cls))
            else:
                stats.instrs_after += len(run)
                out.extend(run)
            i = j
        block.instrs = out
    stats.stats = stats.as_stats()
    return stats
