"""Parser for the textual assembly emitted by :mod:`repro.ir.printer`.

The grammar is deliberately tiny; it exists so tests and examples can write
programs as strings and so printer output round-trips.

Every error carries the offending source line and a shared
:class:`repro.diagnostics.Diagnostic`, so ``repro lint`` and
``repro encode`` print parse failures in the same format as lint
findings.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from repro.diagnostics import Diagnostic, Location, Severity
from repro.ir.function import BasicBlock, Function
from repro.ir.instr import BRANCH_OPS, COND_BRANCH_OPS, Instr, OPCODES, Reg

__all__ = ["parse_function", "ParseError"]


class ParseError(ValueError):
    """Raised on malformed assembly text.

    Carries a :class:`~repro.diagnostics.Diagnostic` (rule ``P001``) with
    the source file/line, so CLI consumers render parse errors exactly
    like lint findings.
    """

    def __init__(self, message: str, line: Optional[int] = None,
                 file: Optional[str] = None,
                 diagnostic: Optional[Diagnostic] = None) -> None:
        super().__init__(message)
        if diagnostic is None:
            diagnostic = Diagnostic(
                rule="P001", name="parse-error", severity=Severity.ERROR,
                message=message, location=Location(file=file, line=line),
            )
        self.diagnostic = diagnostic

    @property
    def line(self) -> Optional[int]:
        return self.diagnostic.location.line


_REG_RE = re.compile(r"^([vr])(\d+)(?:\.(\w+))?$")
_FUNC_RE = re.compile(r"^func\s+(\w+)\s*\(([^)]*)\)\s*:$")
# dotted labels are legal: SSA destruction names the blocks it splits off
# critical edges ``pred.succ.crit``
_LABEL_RE = re.compile(r"^([\w.]+):$")
_MEM_RE = re.compile(r"^\[\s*([vr]\d+(?:\.\w+)?)\s*\+\s*(-?\d+)\s*\]$")
_SLOT_RE = re.compile(r"^slot(\d+)$")


def _err(line_no: int, message: str) -> ParseError:
    """A ParseError anchored at one source line.

    The exception string keeps the historical ``line N: ...`` prefix; the
    attached diagnostic carries the line in its location instead.
    """
    return ParseError(
        f"line {line_no}: {message}",
        diagnostic=Diagnostic(
            rule="P001", name="parse-error", severity=Severity.ERROR,
            message=message, location=Location(line=line_no),
        ),
    )


def _parse_reg(tok: str, line_no: int) -> Reg:
    m = _REG_RE.match(tok.strip())
    if not m:
        raise _err(line_no, f"expected register, got {tok!r}")
    kind, rid, cls = m.groups()
    return Reg(int(rid), virtual=(kind == "v"), cls=cls or "int")


def _split_operands(rest: str) -> List[str]:
    """Split an operand list on top-level commas (commas inside [] kept)."""
    parts: List[str] = []
    depth = 0
    cur = ""
    for ch in rest:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append(cur.strip())
            cur = ""
        else:
            cur += ch
    if cur.strip():
        parts.append(cur.strip())
    return parts


def _parse_instr(text: str, line_no: int) -> Instr:
    text = text.strip()
    if " " in text:
        op, rest = text.split(None, 1)
    else:
        op, rest = text, ""
    if op not in OPCODES:
        raise _err(line_no, f"unknown opcode {op!r}")
    ops = _split_operands(rest)

    def reg(i: int) -> Reg:
        return _parse_reg(ops[i], line_no)

    def imm(i: int) -> int:
        try:
            return int(ops[i], 0)
        except ValueError:
            raise _err(line_no, f"expected immediate, got {ops[i]!r}")

    try:
        if op == "li":
            return Instr("li", dst=reg(0), imm=imm(1))
        if op == "mov":
            return Instr("mov", dst=reg(0), srcs=(reg(1),))
        if op == "ld":
            m = _MEM_RE.match(ops[1])
            if not m:
                raise _err(line_no, f"bad address {ops[1]!r}")
            return Instr("ld", dst=reg(0), srcs=(_parse_reg(m.group(1), line_no),),
                         imm=int(m.group(2)))
        if op == "st":
            m = _MEM_RE.match(ops[1])
            if not m:
                raise _err(line_no, f"bad address {ops[1]!r}")
            return Instr("st", srcs=(reg(0), _parse_reg(m.group(1), line_no)),
                         imm=int(m.group(2)))
        if op == "ldslot":
            m = _SLOT_RE.match(ops[1])
            if not m:
                raise _err(line_no, f"bad slot {ops[1]!r}")
            return Instr("ldslot", dst=reg(0), imm=int(m.group(1)))
        if op == "stslot":
            m = _SLOT_RE.match(ops[1])
            if not m:
                raise _err(line_no, f"bad slot {ops[1]!r}")
            return Instr("stslot", srcs=(reg(0),), imm=int(m.group(1)))
        if op == "br":
            return Instr("br", label=ops[0])
        if op in COND_BRANCH_OPS:
            return Instr(op, srcs=(reg(0), reg(1)), label=ops[2])
        if op == "ret":
            return Instr("ret", srcs=(reg(0),))
        if op == "setlr":
            value = imm(0)
            delay = imm(1) if len(ops) > 1 else 0
            cls = ops[2] if len(ops) > 2 else "int"
            return Instr("setlr", imm=(value, delay, cls))
        if op == "nop":
            return Instr("nop")
        if op == "call":
            raise _err(line_no, "call is not parseable from text")
        info = OPCODES[op]
        if info.has_imm:
            return Instr(op, dst=reg(0), srcs=(reg(1),), imm=imm(2))
        return Instr(op, dst=reg(0), srcs=(reg(1), reg(2)))
    except IndexError:
        raise _err(line_no, f"too few operands for {op}")


def _validate_structure(blocks: List[BasicBlock],
                        block_lines: Dict[str, int],
                        instr_lines: Dict[int, int]) -> None:
    """Line-numbered structural checks (what ``Function.validate`` would
    reject, but anchored to the offending source line)."""
    names = {b.name for b in blocks}
    for block in blocks:
        for i, instr in enumerate(block.instrs):
            line_no = instr_lines[instr.uid]
            if instr.op in BRANCH_OPS and i != len(block.instrs) - 1:
                raise _err(
                    instr_lines[block.instrs[i + 1].uid],
                    f"instruction after terminator {instr.op} "
                    f"in block {block.name!r}",
                )
            if (instr.op in BRANCH_OPS and instr.op != "ret"
                    and instr.label not in names):
                raise _err(line_no,
                           f"branch to unknown block {instr.label!r}")
    if blocks and blocks[-1].falls_through():
        last = blocks[-1]
        line_no = (instr_lines[last.instrs[-1].uid] if last.instrs
                   else block_lines[last.name])
        raise _err(line_no,
                   f"final block {last.name!r} falls off the end of "
                   "the function")


def parse_function(text: str, filename: Optional[str] = None) -> Function:
    """Parse one function from assembly text.

    ``filename`` only labels diagnostics (the text itself is the input);
    every :class:`ParseError` carries the offending line number.
    """
    name: Optional[str] = None
    params: Tuple[Reg, ...] = ()
    blocks: List[BasicBlock] = []
    current: Optional[BasicBlock] = None
    block_lines: Dict[str, int] = {}
    instr_lines: Dict[int, int] = {}
    try:
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            m = _FUNC_RE.match(line)
            if m:
                if name is not None:
                    raise _err(line_no, "second func header")
                name = m.group(1)
                plist = m.group(2).strip()
                if plist:
                    params = tuple(
                        _parse_reg(p, line_no) for p in plist.split(",")
                    )
                continue
            m = _LABEL_RE.match(line)
            if m:
                if m.group(1) in block_lines:
                    raise _err(line_no,
                               f"duplicate block label {m.group(1)!r} "
                               f"(first defined on line "
                               f"{block_lines[m.group(1)]})")
                current = BasicBlock(m.group(1))
                blocks.append(current)
                block_lines[current.name] = line_no
                continue
            if name is None:
                raise _err(line_no, "instruction before func header")
            if current is None:
                raise _err(line_no, "instruction before first label")
            instr = _parse_instr(line, line_no)
            instr_lines[instr.uid] = line_no
            current.append(instr)
        if name is None:
            raise ParseError("no func header found")
        _validate_structure(blocks, block_lines, instr_lines)
    except ParseError as exc:
        if filename is not None and exc.diagnostic.location.file is None:
            loc = exc.diagnostic.location
            raise ParseError(
                str(exc),
                diagnostic=Diagnostic(
                    rule=exc.diagnostic.rule, name=exc.diagnostic.name,
                    severity=exc.diagnostic.severity,
                    message=exc.diagnostic.message,
                    location=Location(file=filename, line=loc.line),
                ),
            ) from None
        raise
    fn = Function(name, blocks, params)
    fn.validate()  # belt and braces; _validate_structure reports first
    return fn
