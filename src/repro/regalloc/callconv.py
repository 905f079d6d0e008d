"""Calling conventions under differential remapping (paper Section 9.3).

Remapping permutes *all* register numbers, which would silently move
argument, return and saved registers away from where callers and callees
expect them.  The paper offers the repair route: "We first apply
differential remapping regardless of the caller-save/callee-save
conventions, then remedy them separately"; the obvious alternative is to
pin the convention registers so the permutation never touches them.  Both
are implemented here:

* ``strategy="pin"`` — convention registers are fixed points of the
  permutation; the search optimises the rest.  Zero repair cost, smaller
  search space.
* ``strategy="repair"`` — the permutation is unconstrained; every call
  site then gets compensation moves that place arguments into their
  convention registers before the call and fetch results out of them
  after.  The moves are real instructions (unlike ``set_last_reg`` they
  survive decode), so this models the paper's "insert a few
  instructions ... in the middle of these caller-save instructions" cost
  honestly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.ir.function import Function
from repro.ir.instr import Instr, Reg
from repro.regalloc.remap import RemapResult, differential_remap

__all__ = [
    "CallingConvention",
    "ConventionViolation",
    "check_convention",
    "remap_with_convention",
]


@dataclass(frozen=True)
class CallingConvention:
    """Register roles at call boundaries.

    All numbers are physical register ids.  ``caller_saved`` /
    ``callee_saved`` partition the scratch space; the experiment pipelines
    only need ``pinned`` (everything with a cross-call meaning).
    """

    arg_regs: Tuple[int, ...] = (0, 1, 2, 3)
    ret_reg: int = 0
    caller_saved: Tuple[int, ...] = (0, 1, 2, 3)
    callee_saved: Tuple[int, ...] = (4, 5, 6, 7)

    @property
    def pinned(self) -> Tuple[int, ...]:
        ids = set(self.arg_regs) | {self.ret_reg} | set(self.callee_saved)
        return tuple(sorted(ids))


@dataclass(frozen=True)
class ConventionViolation:
    """One call-boundary register observed outside its convention home."""

    block: str
    call_label: str
    role: str          # "arg" or "ret"
    expected: int
    found: int


def check_convention(fn: Function, cc: CallingConvention) -> List[ConventionViolation]:
    """Report call sites whose explicit register effects left the
    convention homes (as a permutation-applying pass would cause)."""
    violations: List[ConventionViolation] = []
    for block in fn.blocks:
        for instr in block.instrs:
            if instr.op != "call":
                continue
            for i, r in enumerate(instr.call_uses):
                if i < len(cc.arg_regs) and r.id != cc.arg_regs[i]:
                    violations.append(ConventionViolation(
                        block.name, instr.label or "?", "arg",
                        cc.arg_regs[i], r.id,
                    ))
            for r in instr.call_defs:
                if r.id != cc.ret_reg:
                    violations.append(ConventionViolation(
                        block.name, instr.label or "?", "ret",
                        cc.ret_reg, r.id,
                    ))
    return violations


def _sequence_parallel_moves(wanted: Sequence[Tuple[Reg, Reg]]) -> List[Instr]:
    """Emit argument-setup moves minimally via the parallel-move resolver.

    The moves ``home_i := src_i`` are conceptually parallel — exactly the
    shuffle-code problem :mod:`repro.regalloc.moves` solves.  Acyclic
    dependencies become plain moves in safe order; residual cycles break
    with xor-swap triples, which need no scratch register (liveness at a
    call site is too murky to prove one dead).
    """
    from repro.regalloc.moves import lower_ops, resolve_parallel_move

    by_cls: Dict[str, Dict[int, int]] = {}
    for dst, src in wanted:
        by_cls.setdefault(dst.cls, {})[dst.id] = src.id
    out: List[Instr] = []
    for cls in sorted(by_cls):
        resolved = resolve_parallel_move(by_cls[cls])
        out.extend(lower_ops(resolved.ops, cls=cls))
    return out


def _repair_call_sites(fn: Function, cc: CallingConvention,
                       reg_n: int) -> Tuple[Function, int]:
    """Insert compensation moves so every call keeps its convention.

    ``fn`` has already been renamed through the permutation, call effects
    included: the value meant for argument slot ``i`` now sits in the
    (renamed) register recorded in ``call_uses[i]``.  A
    ``mov home_i, renamed`` restores it right before the call, and the
    result moves out of the return home afterwards.  The call's own
    register effects go back to convention numbers.  Returns the repaired
    function and the move count.
    """
    n_moves = 0
    out = fn.copy()
    for block in out.blocks:
        new_instrs: List[Instr] = []
        for instr in block.instrs:
            if instr.op != "call":
                new_instrs.append(instr)
                continue
            wanted: List[Tuple[Reg, Reg]] = []  # (home, source)
            fixed_uses: List[Reg] = []
            for i, r in enumerate(instr.call_uses):
                if i >= len(cc.arg_regs):
                    fixed_uses.append(r)
                    continue
                home = Reg(cc.arg_regs[i], virtual=False, cls=r.cls)
                fixed_uses.append(home)
                if r != home:
                    wanted.append((home, r))
            pre = _sequence_parallel_moves(wanted)
            n_moves += len(pre)
            post: List[Instr] = []
            fixed_defs: List[Reg] = []
            for r in instr.call_defs:
                home = Reg(cc.ret_reg, virtual=False, cls=r.cls)
                fixed_defs.append(home)
                if r != home:
                    post.append(Instr("mov", dst=r, srcs=(home,)))
                    n_moves += 1
            repaired = instr.copy()
            repaired.call_uses = tuple(fixed_uses)
            repaired.call_defs = tuple(fixed_defs)
            new_instrs.extend(pre)
            new_instrs.append(repaired)
            new_instrs.extend(post)
        block.instrs = new_instrs
    return out, n_moves


@dataclass
class ConventionRemapResult:
    """A remapping that respects a calling convention."""

    remap: RemapResult
    fn: Function
    strategy: str
    repair_moves: int = 0


def remap_with_convention(fn: Function, reg_n: int, diff_n: int,
                          cc: CallingConvention,
                          strategy: str = "pin",
                          restarts: int = 50,
                          seed: int = 0,
                          freq: Optional[Dict[str, float]] = None
                          ) -> ConventionRemapResult:
    """Differential remapping that leaves call boundaries intact.

    Returns the chosen permutation, the (repaired) function, and the repair
    cost.  With ``strategy="pin"`` the result needs no repair by
    construction; with ``strategy="repair"`` the unconstrained permutation
    usually achieves a lower adjacency cost, paid for with compensation
    moves at each call site — the paper's Section 9.3 trade.
    """
    if strategy == "pin":
        remap = differential_remap(
            fn, reg_n, diff_n, restarts=restarts, seed=seed, freq=freq,
            pinned=[p for p in cc.pinned if p < reg_n],
        )
        return ConventionRemapResult(remap, remap.fn, "pin", 0)
    if strategy == "repair":
        remap = differential_remap(
            fn, reg_n, diff_n, restarts=restarts, seed=seed, freq=freq,
        )
        repaired, n_moves = _repair_call_sites(remap.fn, cc, reg_n)
        return ConventionRemapResult(remap, repaired, "repair", n_moves)
    raise ValueError(f"unknown strategy {strategy!r}; use 'pin' or 'repair'")
