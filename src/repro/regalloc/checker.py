"""Symbolic allocation checker (after regalloc2's ``ion_checker``).

Given the *pre-allocation* function and *any* allocator's output, prove —
without executing anything — that every use reads the value of the correct
def; ``run_setup`` proves every result it returns this way.  The abstract state maps each storage location (an allocated register,
or a spill slot ``("slot", n)``) to the set of original registers whose
*current value* it holds.  Symbols are the original (virtual) registers
themselves: "location L holds symbol v" means "L holds whatever value v
has at this program point in the original program".

The walk is anchored on instruction identity: every rewrite in the
allocation pipeline goes through ``dataclasses.replace`` and therefore
preserves ``Instr.uid``, so an allocated instruction is matched back to
its original by uid and checked field-by-field.  Instructions the
allocators *insert* (spill ``ldslot``/``stslot``, compensation ``mov``/
``xor``-swap triples, coalescing copies, ``setlr``) have fresh uids and
well-known value-transport semantics; instructions the allocators *delete*
(coalesced self-moves) are replayed as phantom copies on the symbol level.

Dataflow runs to a fixpoint over the CFG with set-intersection meet — at a
join a location only keeps a symbol it holds on *every* incoming path,
exactly the condition under which allocated code may read it there.

Next to symbols, every location tracks one more fact — *initializedness*
(a ``_DEFINED`` marker in its set, written by any def, intersected at
joins like everything else).  An allocator-inserted instruction that reads
a location no path has written is flagged even when the garbage it moves
never reaches a matched use: the interpreter faults on exactly that read,
so a value-flow-only checker would pass mutants the machine rejects.

Diagnostics reuse the shared :mod:`repro.diagnostics` objects:

========= ================ ==============================================
rule      name             meaning
========= ================ ==============================================
C001      shape-mismatch   block structure / params differ; cannot check
C002      wrong-value      a use reads a location not holding its def
C003      instr-mismatch   a uid-matched instruction changed shape
C004      undefined-read   an inserted instruction reads a location that
                           is uninitialized on some path
========= ================ ==============================================
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Hashable, List, Optional, Tuple

from repro.diagnostics import Diagnostic, DiagnosticReport, Location, Severity
from repro.ir.function import Function
from repro.ir.instr import Instr, Reg

__all__ = ["check_allocation_semantics"]

# a storage location: an allocated register, or ("slot", n)
LocKey = Hashable
# a location's facts: original registers whose value it holds, plus the
# _DEFINED marker once any def has written it on every incoming path
State = Dict[LocKey, FrozenSet[object]]

_EMPTY: FrozenSet[object] = frozenset()
_DEFINED = "<defined>"  # marker; original symbols are Reg objects


def _slot(instr: Instr) -> LocKey:
    return ("slot", int(instr.imm))


def _kill(state: State, sym: Reg) -> None:
    """The original program redefined ``sym``: its old value exists
    nowhere any more."""
    for loc in list(state):
        if sym in state[loc]:
            state[loc] = state[loc] - {sym}
            if not state[loc]:
                del state[loc]


def _bind(state: State, loc: LocKey, sym: Reg) -> None:
    _kill(state, sym)
    state[loc] = frozenset((sym, _DEFINED))


def _phantom(orig: Instr, state: State) -> None:
    """Replay an original instruction the allocator deleted.

    The only deletion in the pipeline is the coalescer dropping a ``mov``
    whose operands got the same color; on the symbol level the copied
    register becomes an alias for the source's current value.  Any other
    deleted def is conservatively treated as "value exists nowhere".
    """
    if orig.op == "mov":
        src, dst = orig.srcs[0], orig.dst
        _kill(state, dst)
        for loc in list(state):
            if src in state[loc]:
                state[loc] = state[loc] | {dst}
        return
    for d in orig.defs():
        _kill(state, d)


def _is_xor_swap(instrs: List[Instr], i: int) -> bool:
    """Detect the callconv repair's 3-xor register swap at ``instrs[i]``."""
    if i + 2 >= len(instrs):
        return False
    a_i, b_i, c_i = instrs[i], instrs[i + 1], instrs[i + 2]
    if not (a_i.op == b_i.op == c_i.op == "xor"):
        return False
    a, b = a_i.dst, b_i.dst
    return (a is not None and b is not None and a != b
            and a_i.srcs == (a, b) and b_i.srcs == (b, a)
            and c_i.dst == a and c_i.srcs == (a, b))


def _unknown_transfer(instrs: List[Instr], i: int, state: State,
                      emit: Optional[Callable[[Instr, str, str], None]]
                      ) -> int:
    """Transfer for an allocator-inserted instruction; returns the next
    index (xor-swap triples consume three instructions).

    Inserted instructions move values, they never compute them, so the
    only check they need is that what they read was written at all —
    reading an uninitialized location is the fault the interpreter raises.
    """
    ins = instrs[i]

    def read(loc: LocKey, what: str) -> FrozenSet[object]:
        held = state.get(loc, _EMPTY)
        if _DEFINED not in held and emit is not None:
            emit(ins, "C004",
                 f"inserted {ins.op} reads {what}, which is uninitialized "
                 f"on some path")
        return held

    if ins.op == "xor" and _is_xor_swap(instrs, i):
        a, b = ins.dst, instrs[i + 1].dst
        held_a = read(a, str(a))
        held_b = read(b, str(b))
        state[a], state[b] = held_b | {_DEFINED}, held_a | {_DEFINED}
        return i + 3
    if ins.op == "mov":
        state[ins.dst] = read(ins.srcs[0], str(ins.srcs[0])) | {_DEFINED}
    elif ins.op == "ldslot":
        state[ins.dst] = read(_slot(ins), f"slot {ins.imm}") | {_DEFINED}
    elif ins.op == "stslot":
        state[_slot(ins)] = (read(ins.srcs[0], str(ins.srcs[0]))
                             | {_DEFINED})
    elif ins.op in ("setlr", "nop"):
        pass  # decode bookkeeping / padding: no value movement
    else:
        # an inserted instruction with unknown semantics: whatever it
        # writes is initialized but holds no tracked value
        for s in ins.uses():
            read(s, str(s))
        for d in ins.defs():
            state[d] = frozenset((_DEFINED,))
    return i + 1


def _matched_transfer(orig: Instr, alloc: Instr, state: State,
                      emit: Optional[Callable[[Instr, str, str], None]],
                      clobbers: Tuple[Reg, ...]) -> None:
    """Check + transfer for an allocated instruction matched to its
    original by uid."""
    shape_ok = (orig.op == alloc.op
                and orig.imm == alloc.imm
                and orig.label == alloc.label
                and len(orig.srcs) == len(alloc.srcs)
                and (orig.dst is None) == (alloc.dst is None)
                and len(orig.call_uses) == len(alloc.call_uses)
                and len(orig.call_defs) == len(alloc.call_defs))
    if not shape_ok:
        if emit is not None:
            emit(alloc, "C003",
                 f"instruction changed shape under allocation: "
                 f"{orig.op} (imm={orig.imm!r}) became "
                 f"{alloc.op} (imm={alloc.imm!r})")
        for d in alloc.defs():
            state[d] = frozenset((_DEFINED,))
        return
    for pos, (sym, loc) in enumerate(zip(orig.uses(), alloc.uses())):
        if sym not in state.get(loc, _EMPTY):
            if emit is not None:
                emit(alloc, "C002",
                     f"use #{pos} of {alloc.op} reads {loc}, which does "
                     f"not hold the value of {sym}")
    if orig.op == "call":
        for c in clobbers:
            if c not in alloc.call_defs:
                state[c] = frozenset((_DEFINED,))
    for sym, loc in zip(orig.defs(), alloc.defs()):
        _bind(state, loc, sym)


def _meet(a: State, b: State) -> State:
    """Per-location set intersection; a symbol survives a join only if
    every incoming path agrees the location holds it."""
    out: State = {}
    for loc in a.keys() & b.keys():
        held = a[loc] & b[loc]
        if held:
            out[loc] = held
    return out


def check_allocation_semantics(original: Function, allocated: Function,
                               clobbers: Tuple[Reg, ...] = ()
                               ) -> DiagnosticReport:
    """Statically verify that ``allocated`` computes what ``original`` does.

    ``original`` is the pre-allocation function; ``allocated`` is any
    pipeline output derived from it — colored, spilled, remapped, encoded
    (with ``setlr``), coalesced, or any combination.  ``clobbers`` lists
    caller-saved physical registers a ``call`` destroys (empty for the
    default pipeline, where call effects are explicit ``call_defs``).

    Returns a :class:`DiagnosticReport`; ``report.ok`` means every use in
    ``allocated`` provably reads the value of the right original def on
    every path.
    """
    report = DiagnosticReport()

    def structural(msg: str) -> DiagnosticReport:
        report.add(Diagnostic(
            rule="C001", name="shape-mismatch", severity=Severity.ERROR,
            message=msg, location=Location(function=allocated.name),
            hint="the checker needs the allocated function to keep the "
                 "original block structure",
        ))
        return report

    orig_names = [b.name for b in original.blocks]
    alloc_names = [b.name for b in allocated.blocks]
    if orig_names != alloc_names:
        return structural(
            f"block layout changed: {orig_names} became {alloc_names}")
    if len(original.params) != len(allocated.params):
        return structural(
            f"parameter count changed: {len(original.params)} became "
            f"{len(allocated.params)}")

    # per-block uid -> position map over the original function
    uid_pos: Dict[str, Dict[int, int]] = {
        b.name: {ins.uid: j for j, ins in enumerate(b.instrs)}
        for b in original.blocks
    }
    orig_instrs = {b.name: b.instrs for b in original.blocks}

    def walk(block_name: str, instrs: List[Instr], state: State,
             emit: Optional[Callable[[Instr, str, str], None]]) -> State:
        positions = uid_pos[block_name]
        originals = orig_instrs[block_name]
        cursor = 0
        i = 0
        while i < len(instrs):
            ins = instrs[i]
            pos = positions.get(ins.uid)
            if pos is not None and pos >= cursor:
                for j in range(cursor, pos):
                    _phantom(originals[j], state)
                cursor = pos + 1
                _matched_transfer(originals[pos], ins, state, emit,
                                  clobbers)
                i += 1
            else:
                i = _unknown_transfer(instrs, i, state, emit)
        for j in range(cursor, len(originals)):
            _phantom(originals[j], state)
        return state

    # entry state: parameters arrive by position
    entry: State = {}
    for sym, loc in zip(original.params, allocated.params):
        entry[loc] = entry.get(loc, _EMPTY) | {sym, _DEFINED}

    succs, _ = allocated.cfg()
    in_states: Dict[str, Optional[State]] = {name: None
                                             for name in alloc_names}
    in_states[alloc_names[0]] = entry
    alloc_blocks = {b.name: b.instrs for b in allocated.blocks}

    worklist = [alloc_names[0]]
    while worklist:
        name = worklist.pop()
        state = dict(in_states[name])  # type: ignore[arg-type]
        out = walk(name, alloc_blocks[name], state, emit=None)
        for s in succs[name]:
            prev = in_states[s]
            new = dict(out) if prev is None else _meet(prev, out)
            if prev is None or new != prev:
                in_states[s] = new
                if s not in worklist:
                    worklist.append(s)

    # reporting pass: one deterministic sweep in layout order
    for block in allocated.blocks:
        start = in_states[block.name]
        if start is None:
            continue  # unreachable in the allocated CFG; nothing executes

        def emit(ins: Instr, rule: str, msg: str,
                 _block: str = block.name) -> None:
            idx = next((k for k, x in enumerate(alloc_blocks[_block])
                        if x is ins), None)
            report.add(Diagnostic(
                rule=rule,
                name={"C002": "wrong-value",
                      "C003": "instr-mismatch",
                      "C004": "undefined-read"}[rule],
                severity=Severity.ERROR, message=msg,
                location=Location(function=allocated.name, block=_block,
                                  instr_index=idx, uid=ins.uid),
                hint="the allocated function does not preserve the "
                     "original def-use semantics here",
            ))

        walk(block.name, alloc_blocks[block.name], dict(start), emit)
    return report
