"""The lint rule catalogue (see ``docs/lint_rules.md``).

Each rule is a function from a :class:`~repro.lint.context.LintContext`
to diagnostics, registered with a stable id.  Rules marked ``needs_cfg``
are dataflow-backed and are skipped when the CFG itself is malformed —
L001 reports that case, so a broken function never crashes the linter.

========  =================  ========================================
id        name               checks
========  =================  ========================================
L001      cfg-wellformed     terminator placement, branch targets,
                             function falls off the end
L002      def-before-use     a register readable before any definition
                             on some path (liveness live-in of entry)
L003      vreg-mixing        virtual registers after allocation /
                             virtual-physical mixing before
L004      reg-class          physical ids beyond the class budget or
                             differential space
L005      callconv           call-site argument/return registers away
                             from their convention homes
L006      two-address        reg-reg ALU ops that are not two-address
                             when the THUMB-style order is in force
L007      setlr              set_last_reg payload shape, value range,
                             delay vs. next instruction's field count
L008      spill-slot         loads from (possibly) uninitialized spill
                             slots; stores never loaded back
L009      dead-block         unreachable blocks, duplicate blocks
L010      alloc-interference two simultaneously-live values assigned
                             the same physical register (needs the
                             coloring and the pre-allocation function)
L011      redundant-setlr    set_last_reg repairs the static decode
                             model proves redundant or dead; delays
                             that never fire in their block
========  =================  ========================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.diagnostics import Diagnostic, DiagnosticReport, Location, Severity
from repro.encoding.access_order import ACCESS_ORDERS
from repro.encoding.encoder import encoding_preconditions, setlr_payload
from repro.ir.function import Function
from repro.ir.instr import ALU_REG_OPS, BRANCH_OPS, Instr, Reg
from repro.lint.context import LintContext, LintOptions

__all__ = ["Rule", "RULES", "run_lint", "lint_function"]

_COMMUTATIVE = frozenset({"add", "mul", "and", "or", "xor"})


@dataclass(frozen=True)
class Rule:
    """One registered lint rule."""

    id: str
    name: str
    description: str
    check: Callable[[LintContext], List[Diagnostic]]
    needs_cfg: bool = False


RULES: Dict[str, Rule] = {}


def _rule(rule_id: str, name: str, description: str, needs_cfg: bool = False):
    def register(fn: Callable[[LintContext], List[Diagnostic]]):
        RULES[rule_id] = Rule(rule_id, name, description, fn, needs_cfg)
        return fn
    return register


def _make(rule_id: str, name: str):
    """Diagnostic factory bound to one rule id."""
    def make(severity: Severity, message: str, location: Location,
             hint: Optional[str] = None) -> Diagnostic:
        return Diagnostic(rule=rule_id, name=name, severity=severity,
                          message=message, location=location, hint=hint)
    return make


# ----------------------------------------------------------------------
# L001 — CFG well-formedness
# ----------------------------------------------------------------------

@_rule("L001", "cfg-wellformed",
       "terminators at block ends, branch targets resolvable, "
       "no fall-through off the function")
def _check_cfg(ctx: LintContext) -> List[Diagnostic]:
    make = _make("L001", "cfg-wellformed")
    out: List[Diagnostic] = []
    fn = ctx.fn
    if not fn.blocks:
        return [make(Severity.ERROR, "function has no basic blocks",
                     Location(function=fn.name))]
    for block in fn.blocks:
        for i, instr in enumerate(block.instrs):
            loc = ctx.loc(block, i, instr)
            if instr.op in BRANCH_OPS and i != len(block.instrs) - 1:
                out.append(make(
                    Severity.ERROR,
                    f"terminator {instr.op} is not the last instruction "
                    "of the block",
                    loc,
                    hint="split the block after the terminator or delete "
                         "the unreachable tail",
                ))
            if instr.op in BRANCH_OPS and instr.op != "ret":
                if instr.label is None:
                    out.append(make(
                        Severity.ERROR,
                        f"branch {instr.op} has no target label", loc))
                elif instr.label not in ctx.block_names:
                    out.append(make(
                        Severity.ERROR,
                        f"branch to unknown block {instr.label!r}", loc))
    last = fn.blocks[-1]
    if last.falls_through():
        out.append(make(
            Severity.ERROR,
            f"final block {last.name!r} falls off the end of the function",
            ctx.loc(last, max(len(last.instrs) - 1, 0)),
            hint="end the function with ret or an unconditional branch",
        ))
    return out


# ----------------------------------------------------------------------
# L002 — def-before-use on every path
# ----------------------------------------------------------------------

@_rule("L002", "def-before-use",
       "no register is readable before a definition on some path "
       "(live-in of the entry block must only hold parameters)",
       needs_cfg=True)
def _check_def_before_use(ctx: LintContext) -> List[Diagnostic]:
    make = _make("L002", "def-before-use")
    out: List[Diagnostic] = []
    fn = ctx.fn
    if not fn.blocks:
        return out
    params = set(fn.params)
    entry_live = ctx.liveness.live_in.get(fn.entry.name, frozenset())
    for reg in sorted(entry_live - params, key=str):
        block, i, instr = ctx.first_use_site(reg)
        loc = ctx.loc(block, i, instr) if block is not None \
            else Location(function=fn.name)
        if reg.virtual:
            out.append(make(
                Severity.ERROR,
                f"register {reg} may be used before it is defined",
                loc,
                hint="define it on every path to this use, or declare it "
                     "as a function parameter",
            ))
        else:
            # a physical register can carry incoming machine state that the
            # textual IR does not declare, so this is only suspicious
            out.append(make(
                Severity.WARNING,
                f"physical register {reg} is read before any definition",
                loc,
                hint="declare it as a function parameter if it carries an "
                     "incoming value",
            ))
    return out


# ----------------------------------------------------------------------
# L003 — virtual/physical mixing
# ----------------------------------------------------------------------

@_rule("L003", "vreg-mixing",
       "no virtual registers after allocation; virtual/physical mixing "
       "before allocation is flagged")
def _check_vreg_mixing(ctx: LintContext) -> List[Diagnostic]:
    make = _make("L003", "vreg-mixing")
    out: List[Diagnostic] = []
    if ctx.is_allocated and ctx.has_virtual:
        reported: Set[Reg] = set()
        for block in ctx.fn.blocks:
            for i, instr in enumerate(block.instrs):
                for r in instr.uses() + instr.defs():
                    if r.virtual and r not in reported:
                        reported.add(r)
                        out.append(make(
                            Severity.ERROR,
                            f"virtual register {r} present after "
                            "register allocation",
                            ctx.loc(block, i, instr),
                            hint="the allocator (or a later pass) failed to "
                                 "rewrite this operand",
                        ))
        for r in ctx.fn.params:
            if r.virtual and r not in reported:
                reported.add(r)
                out.append(make(
                    Severity.ERROR,
                    f"virtual register {r} present after register "
                    "allocation (function parameter)",
                    Location(function=ctx.fn.name),
                ))
    elif not ctx.is_allocated and ctx.has_virtual and ctx.has_physical:
        phys = sorted({str(r) for r in ctx.registers if not r.virtual})
        out.append(make(
            Severity.NOTE,
            "function mixes virtual and physical registers "
            f"({', '.join(phys)}) before allocation",
            Location(function=ctx.fn.name),
            hint="intentional for pre-colored operands; otherwise a pass "
                 "ordering bug",
        ))
    return out


# ----------------------------------------------------------------------
# L004 — register-class / budget legality
# ----------------------------------------------------------------------

@_rule("L004", "reg-class",
       "physical register ids stay inside the class budget (k) and the "
       "differential space (EncodingConfig)")
def _check_reg_class(ctx: LintContext) -> List[Diagnostic]:
    make = _make("L004", "reg-class")
    out: List[Diagnostic] = []
    opts = ctx.options
    if opts.encoding is not None:
        # the encoder preconditions implement exactly this check; reuse
        # them so `repro lint` and `encode_function` cannot disagree
        for d in encoding_preconditions(ctx.fn, opts.encoding):
            if d.rule == "L004":
                out.append(d)
    if opts.k is not None:
        reported: Set[Reg] = set()
        for block in ctx.fn.blocks:
            for i, instr in enumerate(block.instrs):
                for r in instr.uses() + instr.defs():
                    if (not r.virtual and r.cls == "int"
                            and r.id >= opts.k and r not in reported):
                        reported.add(r)
                        out.append(make(
                            Severity.ERROR,
                            f"register {r} exceeds the k={opts.k} budget",
                            ctx.loc(block, i, instr),
                        ))
    return out


# ----------------------------------------------------------------------
# L005 — calling-convention legality
# ----------------------------------------------------------------------

@_rule("L005", "callconv",
       "call-site argument and return registers sit in their "
       "calling-convention homes")
def _check_callconv(ctx: LintContext) -> List[Diagnostic]:
    make = _make("L005", "callconv")
    cc = ctx.options.cc
    if cc is None:
        return []
    out: List[Diagnostic] = []
    for block in ctx.fn.blocks:
        for i, instr in enumerate(block.instrs):
            if instr.op != "call":
                continue
            loc = ctx.loc(block, i, instr)
            callee = instr.label or "?"
            for slot, r in enumerate(instr.call_uses):
                if slot >= len(cc.arg_regs) or r.virtual:
                    continue
                if r.id != cc.arg_regs[slot]:
                    out.append(make(
                        Severity.ERROR,
                        f"argument {slot} of call {callee} is in r{r.id}; "
                        f"the convention expects r{cc.arg_regs[slot]}",
                        loc,
                        hint="insert compensation moves or pin the "
                             "convention registers "
                             "(regalloc.callconv.remap_with_convention)",
                    ))
            for r in instr.call_defs:
                if r.virtual:
                    continue
                if r.id != cc.ret_reg:
                    out.append(make(
                        Severity.ERROR,
                        f"return value of call {callee} lands in r{r.id}; "
                        f"the convention expects r{cc.ret_reg}",
                        loc,
                    ))
    return out


# ----------------------------------------------------------------------
# L006 — two-address conformance
# ----------------------------------------------------------------------

@_rule("L006", "two-address",
       "reg-reg ALU instructions satisfy dst == src1 when the "
       "two_address access order is in force")
def _check_two_address(ctx: LintContext) -> List[Diagnostic]:
    make = _make("L006", "two-address")
    opts = ctx.options
    active = opts.two_address if opts.two_address is not None \
        else opts.access_order == "two_address"
    if not active:
        return []
    out: List[Diagnostic] = []
    for block in ctx.fn.blocks:
        for i, instr in enumerate(block.instrs):
            if instr.op not in ALU_REG_OPS or instr.dst is None:
                continue
            loc = ctx.loc(block, i, instr)
            if instr.dst == instr.srcs[0]:
                continue
            if instr.dst == instr.srcs[1]:
                if instr.op in _COMMUTATIVE:
                    out.append(make(
                        Severity.ERROR,
                        f"commutative {instr.op} has dst == src2; "
                        "to_two_address would have swapped the operands",
                        loc,
                        hint="run repro.ir.lowering.to_two_address",
                    ))
                else:
                    out.append(make(
                        Severity.WARNING,
                        f"{instr.op} keeps a three-address form "
                        "(non-commutative op with dst aliasing src2)",
                        loc,
                        hint="known to_two_address residual; needs a "
                             "scratch register to lower",
                    ))
                continue
            out.append(make(
                Severity.ERROR,
                f"{instr.op} is not in two-address form "
                f"(dst {instr.dst} repeats neither source)",
                loc,
                hint="run repro.ir.lowering.to_two_address",
            ))
    return out


# ----------------------------------------------------------------------
# L007 — set_last_reg placement and payload
# ----------------------------------------------------------------------

@_rule("L007", "setlr",
       "set_last_reg payloads are well-formed, values lie in "
       "[0, RegN), delays match the next instruction's field count")
def _check_setlr(ctx: LintContext) -> List[Diagnostic]:
    make = _make("L007", "setlr")
    out: List[Diagnostic] = []
    config = ctx.options.encoding
    order_fn = ACCESS_ORDERS.get(ctx.options.access_order)
    for block in ctx.fn.blocks:
        for i, instr in enumerate(block.instrs):
            if instr.op != "setlr":
                continue
            loc = ctx.loc(block, i, instr)
            try:
                value, delay, cls = setlr_payload(instr)
            except ValueError:
                out.append(make(
                    Severity.ERROR,
                    f"malformed set_last_reg payload {instr.imm!r}", loc,
                    hint="expected imm=(value, delay[, cls])",
                ))
                continue
            if not isinstance(value, int) or not isinstance(delay, int):
                out.append(make(
                    Severity.ERROR,
                    f"set_last_reg payload {instr.imm!r} must carry "
                    "integer value and delay", loc))
                continue
            if delay < 0:
                out.append(make(
                    Severity.ERROR,
                    f"set_last_reg delay {delay} is negative", loc))
                continue
            if config is not None:
                if not 0 <= value < config.reg_n:
                    out.append(make(
                        Severity.ERROR,
                        f"set_last_reg value {value} outside the "
                        f"differential space [0, {config.reg_n})", loc))
                if cls not in config.classes:
                    out.append(make(
                        Severity.ERROR,
                        f"set_last_reg targets unknown register class "
                        f"{cls!r} (encoded classes: "
                        f"{', '.join(config.classes)})", loc))
            # delay semantics: the update applies after `delay` register
            # fields of the *next* instruction have decoded, so the next
            # instruction must have at least that many fields
            nxt = next((x for x in block.instrs[i + 1:] if x.op != "setlr"),
                       None)
            if nxt is None:
                if delay != 0:
                    out.append(make(
                        Severity.ERROR,
                        f"set_last_reg with delay {delay} at block end has "
                        "no following instruction to count fields of", loc,
                        hint="block-end join repairs must use delay 0",
                    ))
            elif order_fn is not None:
                n_fields = len(order_fn(nxt))
                if delay > n_fields:
                    out.append(make(
                        Severity.ERROR,
                        f"set_last_reg delay {delay} exceeds the "
                        f"{n_fields} register field(s) of the next "
                        f"instruction ({nxt.op})", loc,
                        hint="the decoder would apply the update too late; "
                             "recompute the delay for this access order",
                    ))
    return out


# ----------------------------------------------------------------------
# L008 — spill-slot initialization / aliasing
# ----------------------------------------------------------------------

def _slot_of(instr: Instr) -> Optional[int]:
    if instr.op in ("ldslot", "stslot"):
        return int(instr.imm)
    return None


@_rule("L008", "spill-slot",
       "every ldslot is reached by a stslot on every path; stores that "
       "are never loaded are flagged", needs_cfg=True)
def _check_spill_slots(ctx: LintContext) -> List[Diagnostic]:
    make = _make("L008", "spill-slot")
    fn = ctx.fn
    slots = {s for i in fn.instructions() if (s := _slot_of(i)) is not None}
    if not slots or not fn.blocks:
        return []
    out: List[Diagnostic] = []
    blocks = [b for b in fn.blocks if b.name in ctx.reachable]

    # forward may/must "slot initialized" analyses to a fixed point
    def block_stores(b) -> Set[int]:
        return {s for i in b.instrs
                if i.op == "stslot" and (s := _slot_of(i)) is not None}

    gen = {b.name: block_stores(b) for b in blocks}
    may_in = {b.name: set() for b in blocks}    # type: Dict[str, Set[int]]
    may_out = {b.name: set() for b in blocks}   # type: Dict[str, Set[int]]
    must_in = {b.name: set(slots) for b in blocks}
    must_out = {b.name: set(slots) for b in blocks}
    entry = fn.entry.name
    must_in[entry] = set()
    changed = True
    while changed:
        changed = False
        for b in blocks:
            preds = [p for p in ctx.preds[b.name] if p in ctx.reachable]
            new_may = set().union(*(may_out[p] for p in preds)) if preds \
                else set()
            new_must = set.intersection(*(must_out[p] for p in preds)) \
                if preds else set()
            if b.name == entry:
                # the function boundary is a virtual predecessor with no
                # stores: nothing is must-initialized on first entry
                new_must = set()
            new_may_out = new_may | gen[b.name]
            new_must_out = new_must | gen[b.name]
            if (new_may != may_in[b.name] or new_must != must_in[b.name]
                    or new_may_out != may_out[b.name]
                    or new_must_out != must_out[b.name]):
                may_in[b.name], must_in[b.name] = new_may, new_must
                may_out[b.name], must_out[b.name] = new_may_out, new_must_out
                changed = True

    # backward slot liveness for the dead-store check
    live_in = {b.name: set() for b in blocks}   # type: Dict[str, Set[int]]
    live_out = {b.name: set() for b in blocks}  # type: Dict[str, Set[int]]
    changed = True
    while changed:
        changed = False
        for b in reversed(blocks):
            new_out: Set[int] = set()
            for s in ctx.succs[b.name]:
                if s in live_in:
                    new_out |= live_in[s]
            live = set(new_out)
            for instr in reversed(b.instrs):
                if instr.op == "stslot":
                    live.discard(_slot_of(instr))
                elif instr.op == "ldslot":
                    live.add(_slot_of(instr))
            if new_out != live_out[b.name] or live != live_in[b.name]:
                live_out[b.name], live_in[b.name] = new_out, live
                changed = True

    for b in blocks:
        may = set(may_in[b.name])
        must = set(must_in[b.name])
        live = set(live_out[b.name])
        tail: List[Tuple[int, Instr]] = list(enumerate(b.instrs))
        # walk forward for init state; liveness needs a backward pass, so
        # precompute live-after sets per instruction
        live_after: List[Set[int]] = [set() for _ in tail]
        cur = set(live)
        for idx in range(len(tail) - 1, -1, -1):
            live_after[idx] = set(cur)
            instr = tail[idx][1]
            if instr.op == "stslot":
                cur.discard(_slot_of(instr))
            elif instr.op == "ldslot":
                cur.add(_slot_of(instr))
        for i, instr in tail:
            slot = _slot_of(instr)
            if slot is None:
                continue
            loc = ctx.loc(b, i, instr)
            if instr.op == "ldslot":
                if slot not in may:
                    out.append(make(
                        Severity.ERROR,
                        f"spill slot {slot} is loaded but never stored on "
                        "any path from entry", loc,
                        hint="the load reads garbage; a spill store is "
                             "missing or the slot was renumbered "
                             "inconsistently",
                    ))
                elif slot not in must:
                    out.append(make(
                        Severity.WARNING,
                        f"spill slot {slot} may be uninitialized on some "
                        "path to this load", loc,
                        hint="spill stores must dominate their reloads",
                    ))
            else:  # stslot
                if slot not in live_after[i]:
                    out.append(make(
                        Severity.WARNING,
                        f"spill slot {slot} is stored but never loaded "
                        "afterwards", loc,
                        hint="dead spill store; the spiller can drop it",
                    ))
                may.add(slot)
                must.add(slot)
    return out


# ----------------------------------------------------------------------
# L009 — dead / duplicate blocks
# ----------------------------------------------------------------------

def _block_signature(block, succs) -> Tuple:
    instrs = tuple(
        (i.op, str(i.dst), tuple(map(str, i.srcs)), repr(i.imm), i.label)
        for i in block.instrs
    )
    return instrs, tuple(succs[block.name])


@_rule("L009", "dead-block",
       "every block is reachable from entry; structurally identical "
       "blocks with identical successors are flagged", needs_cfg=True)
def _check_dead_blocks(ctx: LintContext) -> List[Diagnostic]:
    make = _make("L009", "dead-block")
    out: List[Diagnostic] = []
    for block in ctx.fn.blocks:
        if block.name not in ctx.reachable:
            out.append(make(
                Severity.WARNING,
                f"block {block.name!r} is unreachable from entry",
                ctx.loc(block),
                hint="delete it or restore the edge that reached it",
            ))
    seen: Dict[Tuple, str] = {}
    for block in ctx.fn.blocks:
        if block.name not in ctx.reachable or not block.instrs:
            continue
        sig = _block_signature(block, ctx.succs)
        if sig in seen:
            out.append(make(
                Severity.NOTE,
                f"block {block.name!r} duplicates block {seen[sig]!r} "
                "(same instructions, same successors)",
                ctx.loc(block),
                hint="merge the blocks and redirect the branches",
            ))
        else:
            seen[sig] = block.name
    return out


# ----------------------------------------------------------------------
# L010 — allocation-interference soundness
# ----------------------------------------------------------------------

@_rule("L010", "alloc-interference",
       "no two simultaneously-live values share a physical register "
       "(checked against the coloring on the pre-allocation function)")
def _check_alloc_interference(ctx: LintContext) -> List[Diagnostic]:
    make = _make("L010", "alloc-interference")
    opts = ctx.options
    if opts.coloring is None or opts.original is None:
        return []  # nothing to check against; pipeline checkpoints supply both
    from repro.analysis.interference import build_interference
    from repro.analysis.liveness import compute_liveness

    out: List[Diagnostic] = []
    try:
        liveness = compute_liveness(opts.original)
    except (KeyError, ValueError):
        return [make(
            Severity.WARNING,
            "cannot check the coloring: the pre-allocation function has "
            "malformed control flow",
            Location(function=ctx.fn.name),
        )]
    classes = sorted({r.cls for r in opts.original.registers()})
    for cls in classes:
        graph = build_interference(opts.original, liveness=liveness, cls=cls)
        # precolored physical operands carry their own assignment; values
        # missing from the coloring (spilled to split temps) clash with
        # nothing
        colors = {r: opts.coloring.get(r, None if r.virtual else r.id)
                  for r in graph.nodes()}
        for a, b in graph.clashes(colors):
            out.append(make(
                Severity.ERROR,
                f"values {a} and {b} are simultaneously live but share "
                f"physical register r{colors[a]} (class {cls!r})",
                Location(function=ctx.fn.name),
                hint="the allocator merged interfering live ranges; "
                     "one of the two values is clobbered",
            ))
    return out


# ----------------------------------------------------------------------
# L011 — redundant / dead set_last_reg repairs
# ----------------------------------------------------------------------

@_rule("L011", "redundant-setlr",
       "set_last_reg repairs the static decode model proves redundant "
       "(value already held) or dead (value never read); delay counters "
       "that never fire inside their block", needs_cfg=True)
def _check_redundant_setlr(ctx: LintContext) -> List[Diagnostic]:
    make = _make("L011", "redundant-setlr")
    config = ctx.options.encoding
    if config is None:
        return []
    if not any(i.op == "setlr" for i in ctx.fn.instructions()):
        return []
    if any(r.virtual for r in ctx.fn.registers()):
        return []  # the decode model needs physical operands
    from repro.encoding.static_verifier import analyze_last_reg

    try:
        analysis = analyze_last_reg(ctx.fn, config)
    except (KeyError, TypeError, ValueError):
        return []  # malformed payloads are L007's report, not ours
    out: List[Diagnostic] = []
    for fact in analysis.setlr_facts:
        if not fact.removable:
            continue
        block = ctx.fn.block(fact.block)
        instr = block.instrs[fact.instr_index]
        loc = ctx.loc(block, fact.instr_index, instr)
        if fact.redundant:
            out.append(make(
                Severity.WARNING,
                f"set_last_reg writes {fact.value} to class "
                f"{fact.cls!r} but the decoder already holds "
                f"{fact.last_at_fire} at the fire point",
                loc,
                hint="provably a no-op on every path; "
                     "encoding.setlr_elim deletes it",
            ))
        else:
            out.append(make(
                Severity.WARNING,
                f"set_last_reg value {fact.value} (class {fact.cls!r}) "
                "is never read by a later register field",
                loc,
                hint="dead repair; encoding.setlr_elim deletes it",
            ))
    for fact in analysis.delay_overflows:
        block = ctx.fn.block(fact.block)
        instr = block.instrs[fact.instr_index]
        out.append(make(
            Severity.ERROR,
            f"set_last_reg delay {fact.delay} never fires: fewer than "
            f"{fact.delay} register fields remain in block "
            f"{fact.block!r}",
            ctx.loc(block, fact.instr_index, instr),
            hint="the decoder would carry the pending update past the "
                 "block; recompute the delay",
        ))
    return out


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------

def run_lint(fn: Function, options: Optional[LintOptions] = None,
             only: Optional[Iterable[str]] = None) -> DiagnosticReport:
    """Run the rule catalogue over one function.

    Args:
        fn: the function to check (any pipeline stage; say which via
            ``options``).
        options: stage expectations; defaults to inference.
        only: restrict to these rule ids or names.

    Rules that need a CFG are skipped automatically when the control flow
    is malformed — L001 reports the breakage itself.
    """
    ctx = LintContext(fn, options)
    wanted = None
    if only is not None:
        wanted = set(only)
    report = DiagnosticReport()
    for rule_id in sorted(RULES):
        rule = RULES[rule_id]
        if wanted is not None and not wanted & {rule.id, rule.name}:
            continue
        if ctx.options.disabled & {rule.id, rule.name}:
            continue
        if rule.needs_cfg and not ctx.cfg_ok:
            continue
        report.extend(rule.check(ctx))
    return report


def lint_function(fn: Function, **options) -> DiagnosticReport:
    """Convenience wrapper: ``lint_function(fn, allocated=True, k=8)``."""
    return run_lint(fn, LintOptions(**options))
