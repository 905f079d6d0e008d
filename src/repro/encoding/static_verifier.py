"""Static verification of differential encodings by abstract interpretation.

:mod:`repro.encoding.verifier` proves an encoding sound by *replaying* the
decode over every reachable ``(block, last_reg state)`` pair.  This module
proves the same property *statically*: it abstracts the decoder's
``last_reg`` (per access class) into a three-level lattice

    ⊥  (unreachable — no decode state ever arrives)
    n  (every path reaching this point leaves ``last_reg = n``)
    ⊤  (paths disagree — at least two distinct values reach this point)

and runs a forward dataflow problem over the CFG using the generic
worklist framework (:mod:`repro.analysis.dataflow`).  The abstraction is
*exact* in the collecting sense: per class, the abstract entry value of a
block is precisely the join of the concrete ``last_reg`` values the replay
verifier would enumerate there, because a field's decode depends only on
its own class's ``last_reg`` and every field access overwrites it with the
(known) original operand.  That exactness is what makes the static verdict
provably agree with decode replay — see ``tests/test_properties.py``.

``set_last_reg`` delay counters are modelled symbolically: each block is
pre-compiled into an *event stream* interleaving register-field decodes
with the ``set_last_reg`` fires their delay counters trigger, exactly as
``repro.encoding.verifier._decode_block`` ticks them.

Two entry points:

* :func:`analyze_last_reg` — codes-free analysis of any function (with or
  without field codes): per-block entry/exit abstract states plus one
  :class:`SetlrFact` per ``set_last_reg`` classifying it as *redundant*
  (the value it writes is already in ``last_reg`` on every path) and/or
  *dead* (the value it writes is never read before being overwritten).
  This is the substrate of lint rule L011 and the ``setlr_elim`` pass.
* :func:`verify_encoding_static` — the full static verifier over an
  :class:`~repro.encoding.encoder.EncodedFunction`: additionally checks
  every field code against the abstract decode state and emits the
  E-series diagnostics catalogued in ``docs/static_analysis.md``.

E-series diagnostics::

    E001 undecodable-field    ERROR    a field decodes to the wrong
                                       register on some reachable path
    E002 join-inconsistency   WARNING  predecessors disagree on last_reg
                                       but no field consumes the value
    E003 field-code-mismatch  ERROR    an instruction has too few or too
                                       many field codes
    E004 delay-outlives-block ERROR    a set_last_reg delay counter never
                                       fires inside its block
    E005 redundant-setlr      WARNING  the written value is already in
                                       last_reg on every reaching path
    E006 dead-setlr           WARNING  the written value is never read
                                       before being overwritten
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple, Union

from repro.analysis.dataflow import DataflowProblem, solve, union_join
from repro.diagnostics import (
    Diagnostic,
    DiagnosticReport,
    Location,
    Severity,
)
from repro.encoding.access_order import ACCESS_ORDERS
from repro.encoding.config import EncodingConfig
from repro.encoding.encoder import EncodedFunction, setlr_payload
from repro.ir.function import Function
from repro.ir.instr import Reg

__all__ = [
    "TOP",
    "AbstractValue",
    "SetlrFact",
    "StaticAnalysis",
    "StaticVerificationReport",
    "analyze_last_reg",
    "verify_encoding_static",
]


class _Top:
    """Singleton ⊤: conflicting ``last_reg`` values reach this point."""

    _instance: Optional["_Top"] = None

    def __new__(cls) -> "_Top":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "⊤"


TOP = _Top()

#: One class's abstract ``last_reg``: a concrete register id or ⊤.
#: ⊥ is represented at the *state* level (a whole-block state of ``None``
#: means the block is unreachable), never per class.
AbstractValue = Union[int, _Top]

# a whole abstract state: sorted (cls, value) pairs, or None for ⊥
_State = Optional[Tuple[Tuple[str, AbstractValue], ...]]


def _join_value(a: AbstractValue, b: AbstractValue) -> AbstractValue:
    return a if a == b else TOP


def _join_state(a: _State, b: _State) -> _State:
    if a is None:
        return b
    if b is None:
        return a
    da, db = dict(a), dict(b)
    return tuple(sorted(
        (cls, _join_value(da[cls], db[cls])) for cls in da
    ))


@dataclass(frozen=True)
class _SetlrSite:
    """One ``set_last_reg`` instruction, located."""

    uid: int
    block: str
    instr_index: int
    value: int
    delay: int
    cls: str


# an event is ("field", Reg) or ("setlr", _SetlrSite); the stream lists
# them in decode order, with delayed fires placed after the field ticks
# that trigger them — exactly the replay verifier's semantics
_Event = Tuple[str, object]


def _block_events(fn: Function, config: EncodingConfig,
                  name: str) -> Tuple[List[_Event], List[_SetlrSite]]:
    """Compile one block into its decode event stream.

    Returns ``(events, overflows)`` where ``overflows`` are the
    ``set_last_reg`` sites whose delay counter never fires inside the
    block (the replay verifier rejects these outright).
    """
    order_fn = ACCESS_ORDERS[config.access_order]
    events: List[_Event] = []
    pending: List[List[object]] = []  # [remaining, site]
    for idx, instr in enumerate(fn.block(name).instrs):
        if instr.op == "setlr":
            value, delay, cls = setlr_payload(instr)
            site = _SetlrSite(uid=instr.uid, block=name, instr_index=idx,
                              value=value, delay=delay, cls=cls)
            if delay == 0:
                events.append(("setlr", site))
            else:
                pending.append([delay, site])
            continue
        for r in order_fn(instr):
            events.append(("field", r))
            fire = []
            for entry in pending:
                entry[0] -= 1  # type: ignore[operator]
                if entry[0] == 0:
                    fire.append(entry)
            for entry in fire:
                pending.remove(entry)
                events.append(("setlr", entry[1]))
    return events, [entry[1] for entry in pending]  # type: ignore[misc]


def _apply_events(events: List[_Event], config: EncodingConfig,
                  state: Dict[str, AbstractValue]) -> Dict[str, AbstractValue]:
    """Forward abstract transfer of one block's event stream."""
    for kind, payload in events:
        if kind == "setlr":
            site: _SetlrSite = payload  # type: ignore[assignment]
            state[site.cls] = site.value
        else:
            r: Reg = payload  # type: ignore[assignment]
            if r.cls in config.classes and not config.is_special(r):
                # a decoded field always leaves the operand in last_reg,
                # re-concretising the state regardless of the entry value
                state[r.cls] = r.id
    return state


@dataclass(frozen=True)
class SetlrFact:
    """Static classification of one ``set_last_reg`` instruction."""

    uid: int
    block: str
    instr_index: int
    value: int
    delay: int
    cls: str
    #: abstract ``last_reg`` the moment the write fires (None when the
    #: enclosing block is unreachable)
    last_at_fire: Optional[AbstractValue]
    #: the write stores a value already in ``last_reg`` on every path
    redundant: bool
    #: the written value is never read before being overwritten
    dead: bool

    @property
    def removable(self) -> bool:
        """Deletable without changing any reachable decode."""
        return self.redundant or self.dead


@dataclass
class StaticAnalysis:
    """Result of :func:`analyze_last_reg` on one function."""

    fn: Function
    config: EncodingConfig
    #: block -> cls -> abstract last_reg at entry; None = unreachable
    entry_states: Dict[str, Optional[Dict[str, AbstractValue]]]
    #: block -> cls -> abstract last_reg at exit; None = unreachable
    exit_states: Dict[str, Optional[Dict[str, AbstractValue]]]
    #: one fact per set_last_reg, in layout order
    setlr_facts: List[SetlrFact] = field(default_factory=list)
    #: set_last_reg sites whose delay counter never fires in their block
    delay_overflows: List[SetlrFact] = field(default_factory=list)
    iterations: int = 0

    @property
    def n_redundant(self) -> int:
        return sum(1 for f in self.setlr_facts if f.redundant)

    @property
    def n_dead(self) -> int:
        return sum(1 for f in self.setlr_facts if f.dead)


def analyze_last_reg(fn: Function, config: EncodingConfig) -> StaticAnalysis:
    """Abstractly interpret the decode stage of ``fn`` (codes-free).

    Works on any function whose register operands are physical — field
    codes are not needed because a decoded field always leaves the
    *original operand* in ``last_reg``.  Computes per-block entry/exit
    abstract states (forward problem) and per-class ``last_reg`` liveness
    (backward problem), then classifies every ``set_last_reg``.
    """
    events: Dict[str, List[_Event]] = {}
    overflows: Dict[str, List[_SetlrSite]] = {}
    for b in fn.blocks:
        events[b.name], overflows[b.name] = _block_events(fn, config, b.name)

    # ------------------------------------------------------------------
    # forward: abstract last_reg per class
    # ------------------------------------------------------------------
    boundary: _State = tuple(
        sorted((cls, config.initial_last_reg) for cls in config.classes)
    )

    def fwd_transfer(block, state: _State) -> _State:
        if state is None:
            return None
        out = _apply_events(events[block.name], config, dict(state))
        return tuple(sorted(out.items()))

    fwd = solve(fn, DataflowProblem(
        direction="forward",
        boundary=boundary,
        init=None,
        join=_join_state,
        transfer=fwd_transfer,
    ))

    # ------------------------------------------------------------------
    # backward: which classes' last_reg values are still read
    # ------------------------------------------------------------------
    def bwd_transfer(block, live: FrozenSet[str]) -> FrozenSet[str]:
        out = set(live)
        for kind, payload in reversed(events[block.name]):
            if kind == "setlr":
                out.discard(payload.cls)  # type: ignore[union-attr]
            else:
                r: Reg = payload  # type: ignore[assignment]
                if r.cls in config.classes and not config.is_special(r):
                    out.add(r.cls)  # the decode reads last_reg[cls]
        return frozenset(out)

    bwd = solve(fn, DataflowProblem(
        direction="backward",
        boundary=frozenset(),
        init=frozenset(),
        join=union_join,
        transfer=bwd_transfer,
    ))

    # ------------------------------------------------------------------
    # per-setlr facts: walk each reachable block once in both directions
    # ------------------------------------------------------------------
    facts: List[SetlrFact] = []
    overflow_facts: List[SetlrFact] = []
    for b in fn.blocks:
        entry = fwd.in_facts[b.name]
        reachable = entry is not None

        # liveness immediately after each event (backward sweep)
        live_after: Dict[int, FrozenSet[str]] = {}
        live = set(bwd.out_facts[b.name])
        for i in range(len(events[b.name]) - 1, -1, -1):
            live_after[i] = frozenset(live)
            kind, payload = events[b.name][i]
            if kind == "setlr":
                live.discard(payload.cls)  # type: ignore[union-attr]
            else:
                r = payload
                if r.cls in config.classes and not config.is_special(r):
                    live.add(r.cls)

        state: Dict[str, AbstractValue] = dict(entry) if reachable else {}
        for i, (kind, payload) in enumerate(events[b.name]):
            if kind == "setlr":
                site: _SetlrSite = payload  # type: ignore[assignment]
                last = state.get(site.cls) if reachable else None
                facts.append(SetlrFact(
                    uid=site.uid, block=site.block,
                    instr_index=site.instr_index,
                    value=site.value, delay=site.delay, cls=site.cls,
                    last_at_fire=last,
                    redundant=reachable and last == site.value,
                    dead=reachable and site.cls not in live_after[i],
                ))
                if reachable:
                    state[site.cls] = site.value
            elif reachable:
                r = payload
                if r.cls in config.classes and not config.is_special(r):
                    state[r.cls] = r.id
        for site in overflows[b.name]:
            overflow_facts.append(SetlrFact(
                uid=site.uid, block=site.block,
                instr_index=site.instr_index,
                value=site.value, delay=site.delay, cls=site.cls,
                last_at_fire=None, redundant=False, dead=False,
            ))

    facts.sort(key=lambda f: (_block_index(fn, f.block), f.instr_index))
    return StaticAnalysis(
        fn=fn, config=config,
        entry_states={
            b.name: dict(fwd.in_facts[b.name])
            if fwd.in_facts[b.name] is not None else None
            for b in fn.blocks
        },
        exit_states={
            b.name: dict(fwd.out_facts[b.name])
            if fwd.out_facts[b.name] is not None else None
            for b in fn.blocks
        },
        setlr_facts=facts,
        delay_overflows=overflow_facts,
        iterations=fwd.iterations + bwd.iterations,
    )


def _block_index(fn: Function, name: str) -> int:
    for i, b in enumerate(fn.blocks):
        if b.name == name:
            return i
    return len(fn.blocks)


# ----------------------------------------------------------------------
# full static verification of an EncodedFunction
# ----------------------------------------------------------------------


@dataclass
class StaticVerificationReport:
    """Result of :func:`verify_encoding_static`."""

    report: DiagnosticReport
    analysis: StaticAnalysis
    blocks_checked: int = 0
    fields_checked: int = 0

    @property
    def ok(self) -> bool:
        """No error-severity findings — the static analogue of the replay
        verifier returning without raising."""
        return self.report.ok


def verify_encoding_static(enc: EncodedFunction) -> StaticVerificationReport:
    """Statically verify ``enc`` without replaying any path.

    Emits the E-series diagnostics described in the module docstring.
    ``result.ok`` (no error-severity findings) agrees with
    :func:`repro.encoding.verifier.verify_encoding` on every encoding:
    the abstract states are exact joins of the concrete states replay
    enumerates, so an E001/E003/E004 error exists if and only if some
    reachable path mis-decodes.
    """
    config = enc.config
    fn = enc.fn
    analysis = analyze_last_reg(fn, config)
    report = DiagnosticReport()
    order_fn = ACCESS_ORDERS[config.access_order]
    slot_to_reg = dict(config.direct_slots)

    blocks_checked = 0
    fields_checked = 0
    _, preds = fn.cfg()
    for block in fn.blocks:
        entry = analysis.entry_states[block.name]
        if entry is None:
            continue  # unreachable: replay never decodes it either
        blocks_checked += 1
        # which classes arrive ⊤, and whether a field consumes that ⊤
        top_unconsumed = {cls for cls, v in entry.items() if v is TOP}

        last: Dict[str, AbstractValue] = dict(entry)
        pending: List[List[object]] = []  # [remaining, value, cls]

        def tick() -> None:
            fire = []
            for p in pending:
                p[0] -= 1  # type: ignore[operator]
                if p[0] == 0:
                    fire.append(p)
            for p in fire:
                pending.remove(p)
                last[p[2]] = p[1]  # type: ignore[index]

        for idx, instr in enumerate(block.instrs):
            loc = Location(function=fn.name, block=block.name,
                           instr_index=idx, uid=instr.uid)
            if instr.op == "setlr":
                value, delay, cls = setlr_payload(instr)
                if delay == 0:
                    last[cls] = value
                    top_unconsumed.discard(cls)
                else:
                    pending.append([delay, value, cls])
                continue
            codes = list(enc.field_codes.get(instr.uid, ()))
            ci = 0
            for r in order_fn(instr):
                if r.cls not in config.classes:
                    fields_checked += 1
                    tick()
                    continue
                if ci >= len(codes):
                    report.add(Diagnostic(
                        rule="E003", name="field-code-mismatch",
                        severity=Severity.ERROR,
                        message=f"missing field code for {instr} field {r}",
                        location=loc,
                    ))
                    fields_checked += 1
                    tick()
                    continue
                code = codes[ci]
                ci += 1
                if code >= config.diff_n:
                    decoded = slot_to_reg.get(code)
                    if decoded is None:
                        report.add(Diagnostic(
                            rule="E001", name="undecodable-field",
                            severity=Severity.ERROR,
                            message=f"field code {code} is neither a "
                                    "difference nor a direct slot",
                            location=loc,
                        ))
                    elif decoded != r.id:
                        report.add(Diagnostic(
                            rule="E001", name="undecodable-field",
                            severity=Severity.ERROR,
                            message=f"direct slot {code} decodes to "
                                    f"r{decoded}, expected {r}",
                            location=loc,
                        ))
                else:
                    prev = last[r.cls]
                    if prev is TOP:
                        report.add(Diagnostic(
                            rule="E001", name="undecodable-field",
                            severity=Severity.ERROR,
                            message=f"field of {instr} consumes an "
                                    "inconsistent last_reg: converging "
                                    "paths disagree, so the difference "
                                    f"code {code} mis-decodes on at least "
                                    "one of them",
                            location=loc,
                            hint="insert a set_last_reg join repair "
                                 "before the first field of this class",
                        ))
                        top_unconsumed.discard(r.cls)
                    elif (prev + code) % config.reg_n != r.id:
                        report.add(Diagnostic(
                            rule="E001", name="undecodable-field",
                            severity=Severity.ERROR,
                            message=f"field of {instr} decodes to "
                                    f"r{(prev + code) % config.reg_n}, "
                                    f"expected {r} (last_reg={prev}, "
                                    f"code={code})",
                            location=loc,
                        ))
                    # recover with the intended operand, like the
                    # hardware decoding the correct encoding would
                    last[r.cls] = r.id
                    top_unconsumed.discard(r.cls)
                fields_checked += 1
                tick()
            if ci != len(codes):
                report.add(Diagnostic(
                    rule="E003", name="field-code-mismatch",
                    severity=Severity.ERROR,
                    message=f"{len(codes) - ci} unused field codes on "
                            f"{instr}",
                    location=loc,
                ))
        if pending:
            report.add(Diagnostic(
                rule="E004", name="delay-outlives-block",
                severity=Severity.ERROR,
                message=f"{len(pending)} set_last_reg delay counter(s) "
                        "never fire before the block ends",
                location=Location(function=fn.name, block=block.name),
                hint="a delayed set_last_reg must fire within its block; "
                     "reduce the delay or move the repair",
            ))

        # joins that disagree but are never consumed: not an error (no
        # field mis-decodes) but worth surfacing — report only where the
        # inconsistency is created, not everywhere it propagates
        for cls in sorted(top_unconsumed):
            incoming = [
                analysis.exit_states[p][cls]
                for p in preds[block.name]
                if analysis.exit_states[p] is not None
            ]
            if TOP in incoming:
                continue  # inherited, reported upstream
            report.add(Diagnostic(
                rule="E002", name="join-inconsistency",
                severity=Severity.WARNING,
                message=f"predecessors leave last_reg[{cls}] at "
                        f"{sorted(set(incoming))} but no field of class "
                        f"'{cls}' is decoded before it is overwritten",
                location=Location(function=fn.name, block=block.name),
            ))

    # structurally-broken delayed repairs found by the codes-free pass on
    # unreachable blocks are invisible to replay; only reachable ones are
    # errors, and those were reported above from the live walk
    for fact in analysis.setlr_facts:
        loc = Location(function=fn.name, block=fact.block,
                       instr_index=fact.instr_index, uid=fact.uid)
        if fact.redundant:
            report.add(Diagnostic(
                rule="E005", name="redundant-setlr",
                severity=Severity.WARNING,
                message=f"set_last_reg({fact.value}, {fact.delay}) writes "
                        f"the value last_reg[{fact.cls}] already holds on "
                        "every reaching path",
                location=loc,
                hint="repro.encoding.setlr_elim deletes these",
            ))
        elif fact.dead:
            report.add(Diagnostic(
                rule="E006", name="dead-setlr",
                severity=Severity.WARNING,
                message=f"set_last_reg({fact.value}, {fact.delay}) writes "
                        f"a last_reg[{fact.cls}] value no field reads "
                        "before it is overwritten",
                location=loc,
                hint="repro.encoding.setlr_elim deletes these",
            ))

    return StaticVerificationReport(
        report=report,
        analysis=analysis,
        blocks_checked=blocks_checked,
        fields_checked=fields_checked,
    )
