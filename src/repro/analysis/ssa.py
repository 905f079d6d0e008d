"""SSA construction and destruction over the phi-free IR.

The IR deliberately has no phi opcode — encoded programs never contain
one — so SSA form lives in a *side table*: :class:`SSAForm` pairs the
renamed :class:`~repro.ir.function.Function` with per-block
:class:`Phi` records.  Construction is the textbook Cytron et al.
pipeline on top of :mod:`repro.analysis.dominators`:

* **pruned phi placement** — iterated dominance frontiers per variable,
  filtered by block liveness so only merges of genuinely live values get
  a phi (minimal SSA would also materialise dead merges, whose arguments
  can lack a reaching definition);
* **renaming** — one dominator-tree walk with a version stack per
  original variable.  The first version of a parameter *is* the
  parameter, so ``fn.params`` survives construction unchanged.

Destruction (:func:`destruct_ssa`) lowers every phi to explicit copies
on its incoming edges, treating the copies of one edge as a single
*parallel move*: all phi destinations of a block simultaneously receive
the values their sources held before any copy ran.  Sequentialising that
naively miscompiles the classic swap/lost-copy cases (loop-header phis
that permute each other's operands), so the edge copies go through
:func:`repro.regalloc.moves.decompose_parallel_move` and residual cycles
are broken with one fresh virtual temporary.  Critical edges — a
predecessor with several successors feeding a block with several
predecessors — are split so edge copies execute exactly when the edge is
taken.

Everything here is deterministic: variables are visited in sorted
order, dominator-tree children in layout order, and fresh names come
from a single counter — the same input always yields the same SSA form
and the same lowered function, which the fuzz harness and the service
cache both rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.dominators import dominance_frontiers, dominator_tree
from repro.analysis.liveness import compute_liveness
from repro.ir.function import BasicBlock, Function
from repro.ir.instr import Instr, Reg

__all__ = ["Phi", "SSAForm", "construct_ssa", "destruct_ssa"]


@dataclass(frozen=True)
class Phi:
    """One phi: ``dst`` receives, per incoming edge, the named value.

    ``args`` maps predecessor block name to the SSA value flowing in
    along that edge; ``var`` remembers the pre-SSA variable the phi
    merges (stats, tests and debugging — never semantics).
    """

    dst: Reg
    args: Tuple[Tuple[str, Reg], ...]
    var: Reg


@dataclass
class SSAForm:
    """A function in SSA form: renamed body plus the phi side table."""

    fn: Function
    phis: Dict[str, List[Phi]] = field(default_factory=dict)
    next_vreg: int = 0
    #: versions handed out per original variable (1 def = no renaming)
    versions: Dict[Reg, int] = field(default_factory=dict)

    @property
    def n_phis(self) -> int:
        return sum(len(ps) for ps in self.phis.values())


def _reachable(fn: Function) -> Set[str]:
    succs, _ = fn.cfg()
    seen = {fn.entry.name}
    work = [fn.entry.name]
    while work:
        for s in succs[work.pop()]:
            if s not in seen:
                seen.add(s)
                work.append(s)
    return seen


def _fresh_block_name(fn: Function, base: str) -> str:
    names = {b.name for b in fn.blocks}
    if base not in names:
        return base
    i = 0
    while f"{base}{i}" in names:
        i += 1
    return f"{base}{i}"


def _normalize_entry(fn: Function) -> Function:
    """Give the entry block no predecessors.

    A function whose first block is also a loop header has an implicit
    incoming edge "from outside" that the CFG does not show; phi
    placement and renaming both assume the entry is pred-free, so such
    functions get an empty pre-entry block that falls through.
    """
    _, preds = fn.cfg()
    if not preds[fn.entry.name]:
        return fn
    pre = BasicBlock(_fresh_block_name(fn, "ssa_pre"))
    return Function(fn.name, [pre] + list(fn.blocks), fn.params)


def construct_ssa(fn: Function) -> SSAForm:
    """Build pruned SSA for ``fn`` (the input is left untouched).

    Virtual registers of every class are renamed; physical registers
    pass through (they are ISA state, not dataflow values).  Unreachable
    blocks are left verbatim — they execute never and dominate nothing.
    """
    fn = _normalize_entry(fn.copy())
    reachable = _reachable(fn)
    liveness = compute_liveness(fn)
    children = dominator_tree(fn)
    frontiers = dominance_frontiers(fn)
    succs, preds = fn.cfg()
    blocks = {b.name: b for b in fn.blocks}

    # definition sites per variable (params are defined at entry)
    defsites: Dict[Reg, Set[str]] = {p: {fn.entry.name} for p in fn.params
                                     if p.virtual}
    for b in fn.blocks:
        if b.name not in reachable:
            continue
        for instr in b.instrs:
            for r in instr.defs():
                if r.virtual:
                    defsites.setdefault(r, set()).add(b.name)

    # pruned phi placement: iterated dominance frontier, gated on live-in
    phi_vars: Dict[str, List[Reg]] = {name: [] for name in blocks}
    for var in sorted(defsites):
        placed: Set[str] = set()
        work = sorted(defsites[var])
        while work:
            d = work.pop()
            for y in sorted(frontiers.get(d, ())):
                if y in placed or y not in reachable:
                    continue
                if var not in liveness.live_in[y]:
                    continue  # pruned: the merge would be dead
                placed.add(y)
                phi_vars[y].append(var)
                if y not in defsites[var]:
                    defsites[var].add(y)
                    work.append(y)

    # renaming along the dominator tree
    next_vreg = [fn.max_vreg_id() + 1]
    versions: Dict[Reg, int] = {}
    stacks: Dict[Reg, List[Reg]] = {p: [p] for p in fn.params if p.virtual}

    def new_version(var: Reg) -> Reg:
        versions[var] = versions.get(var, 0) + 1
        r = Reg(next_vreg[0], virtual=True, cls=var.cls)
        next_vreg[0] += 1
        stacks.setdefault(var, []).append(r)
        return r

    def current(var: Reg) -> Reg:
        stack = stacks.get(var)
        return stack[-1] if stack else var

    # phi records are assembled in two passes over the tree walk: dsts
    # when a block is entered, args when each predecessor is processed
    phi_dst: Dict[Tuple[str, Reg], Reg] = {}
    phi_args: Dict[Tuple[str, Reg], Dict[str, Reg]] = {}
    for name, variables in phi_vars.items():
        for var in variables:
            phi_args[(name, var)] = {}

    def rename_block(name: str) -> List[Tuple[Reg, int]]:
        pushed: List[Tuple[Reg, int]] = []
        block = blocks[name]
        for var in phi_vars[name]:
            phi_dst[(name, var)] = new_version(var)
            pushed.append((var, 1))
        new_instrs: List[Instr] = []
        for instr in block.instrs:
            use_map = {r: current(r) for r in set(instr.uses()) if r.virtual}
            srcs = tuple(use_map.get(s, s) for s in instr.srcs)
            call_uses = tuple(use_map.get(s, s) for s in instr.call_uses)
            dst = instr.dst
            if dst is not None and dst.virtual:
                dst = new_version(instr.dst)
                pushed.append((instr.dst, 1))
            call_defs = []
            for r in instr.call_defs:
                if r.virtual:
                    call_defs.append(new_version(r))
                    pushed.append((r, 1))
                else:
                    call_defs.append(r)
            new_instrs.append(replace(instr, dst=dst, srcs=srcs,
                                      call_uses=call_uses,
                                      call_defs=tuple(call_defs)))
        block.instrs = new_instrs
        for s in succs[name]:
            for var in phi_vars.get(s, ()):
                phi_args[(s, var)][name] = current(var)
        return pushed

    # iterative preorder walk (explicit stack: deep loop nests would
    # otherwise hit the recursion limit)
    walk: List[Tuple[str, Optional[List[Tuple[Reg, int]]]]] = \
        [(fn.entry.name, None)]
    while walk:
        name, pushed = walk.pop()
        if pushed is not None:  # post-visit: pop this block's versions
            for var, n in pushed:
                for _ in range(n):
                    stacks[var].pop()
            continue
        walk.append((name, rename_block(name)))
        for child in reversed(children.get(name, ())):
            if child in reachable:
                walk.append((child, None))

    phis: Dict[str, List[Phi]] = {}
    for name, variables in phi_vars.items():
        if not variables:
            continue
        phis[name] = [
            Phi(dst=phi_dst[(name, var)],
                args=tuple(sorted(phi_args[(name, var)].items())),
                var=var)
            for var in variables
        ]
    return SSAForm(fn=fn, phis=phis, next_vreg=next_vreg[0],
                   versions=versions)


# ----------------------------------------------------------------------
# destruction
# ----------------------------------------------------------------------

def _edge_copies(ssa: SSAForm, block: str, pred: str,
                 next_vreg: List[int]) -> List[Instr]:
    """The instructions realising the parallel copy on edge pred->block.

    Phi destinations within one block are distinct, but a destination
    may feed another phi of the same block along a back edge — the swap
    problem — so the copies are ordered via the move-graph decomposition
    and each residual cycle is broken with a fresh temporary.
    """
    from repro.regalloc.moves import decompose_parallel_move

    by_cls: Dict[str, Dict[int, int]] = {}
    regs: Dict[Tuple[str, int], Reg] = {}
    for phi in ssa.phis[block]:
        src = dict(phi.args).get(pred)
        if src is None:
            continue  # unreachable predecessor: the edge never executes
        if src == phi.dst:
            continue
        regs[(phi.dst.cls, phi.dst.id)] = phi.dst
        regs[(src.cls, src.id)] = src
        by_cls.setdefault(phi.dst.cls, {})[phi.dst.id] = src.id

    out: List[Instr] = []
    for cls in sorted(by_cls):
        mapping = by_cls[cls]
        reg = lambda rid: regs[(cls, rid)]  # noqa: E731 - tiny helper
        tree, cycles = decompose_parallel_move(mapping)
        for d, s in tree:
            out.append(Instr("mov", dst=reg(d), srcs=(reg(s),)))
        for cyc in cycles:
            # save c0's old value, shift backwards, read the save last
            tmp = Reg(next_vreg[0], virtual=True, cls=cls)
            next_vreg[0] += 1
            out.append(Instr("mov", dst=tmp, srcs=(reg(cyc[0]),)))
            k = len(cyc)
            for i in range(k - 1):
                out.append(Instr("mov", dst=reg(cyc[-i % k]),
                                 srcs=(reg(cyc[(-i - 1) % k]),)))
            out.append(Instr("mov", dst=reg(cyc[1 % k]), srcs=(tmp,)))
    return out


def destruct_ssa(ssa: SSAForm) -> Function:
    """Lower ``ssa`` back to a phi-free function (out-of-SSA).

    Each phi block's incoming edges get their parallel copies placed at
    the end of the predecessor when the edge is its only way out, or on
    a freshly split block when the edge is critical.  The result
    validates and is semantically equivalent to the construction input.
    """
    fn = ssa.fn.copy()
    next_vreg = [max(ssa.next_vreg, fn.max_vreg_id() + 1)]
    succs, preds = fn.cfg()

    appended: List[BasicBlock] = []
    inserts: List[Tuple[str, BasicBlock]] = []  # fall-through splits
    for block in sorted(ssa.phis):
        for pred in preds[block]:
            copies = _edge_copies(ssa, block, pred, next_vreg)
            if not copies:
                continue
            pred_block = fn.block(pred)
            term = pred_block.terminator()
            if len(succs[pred]) == 1:
                if term is None or not term.uses():
                    # fall-through or unconditional br: copies go at the
                    # end of the predecessor, before the terminator
                    at = len(pred_block.instrs) - (1 if term else 0)
                    pred_block.instrs[at:at] = copies
                else:
                    # degenerate cond branch with both edges into the phi
                    # block: its condition may read a copy destination, so
                    # the copies live in a block of their own after it
                    name = _fresh_block_name(fn, f"{pred}.{block}.crit")
                    pred_block.instrs[-1] = replace(term, label=name)
                    inserts.append((pred, BasicBlock(name, copies)))
                continue
            # critical edge: split it
            assert term is not None  # >1 successor implies a terminator
            name = _fresh_block_name(
                fn, f"{pred}.{block}.crit")
            if term.label == block:
                # the branch-taken edge: new block jumps on to the target
                split = BasicBlock(name, copies + [Instr("br", label=block)])
                pred_block.instrs[-1] = replace(term, label=name)
                appended.append(split)
            else:
                # the fall-through edge: new block slots into the layout
                # right after the predecessor and keeps falling through
                inserts.append((pred, BasicBlock(name, copies)))

    for pred, split in inserts:
        fn.blocks.insert(fn.block_index(pred) + 1, split)
    fn.blocks.extend(appended)
    fn.validate()
    return fn
