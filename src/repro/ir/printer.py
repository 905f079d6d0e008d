"""Textual assembly printer.

The format round-trips through :mod:`repro.ir.parser`::

    func crc32(v0, v1):
    entry:
        li v2, 0
        blt v0, v1, loop
    ...
"""

from __future__ import annotations

from typing import List

from repro.ir.function import Function
from repro.ir.instr import COND_BRANCH_OPS, Instr

__all__ = ["format_instr", "format_function"]


def format_instr(instr: Instr) -> str:
    """Render one instruction as assembly text."""
    op = instr.op
    if op == "li":
        return f"li {instr.dst}, {instr.imm}"
    if op == "mov":
        return f"mov {instr.dst}, {instr.srcs[0]}"
    if op == "ld":
        return f"ld {instr.dst}, [{instr.srcs[0]}+{instr.imm}]"
    if op == "st":
        return f"st {instr.srcs[0]}, [{instr.srcs[1]}+{instr.imm}]"
    if op == "ldslot":
        return f"ldslot {instr.dst}, slot{instr.imm}"
    if op == "stslot":
        return f"stslot {instr.srcs[0]}, slot{instr.imm}"
    if op == "br":
        return f"br {instr.label}"
    if op in COND_BRANCH_OPS:
        return f"{op} {instr.srcs[0]}, {instr.srcs[1]}, {instr.label}"
    if op == "ret":
        return f"ret {instr.srcs[0]}"
    if op == "call":
        uses = ", ".join(str(r) for r in instr.call_uses)
        defs = ", ".join(str(r) for r in instr.call_defs)
        return f"call {instr.label} uses({uses}) defs({defs})"
    if op == "setlr":
        value, delay = instr.imm[0], instr.imm[1]
        cls = instr.imm[2] if len(instr.imm) > 2 else "int"
        suffix = f", {cls}" if cls != "int" else ""
        if delay or suffix:
            return f"setlr {value}, {delay}{suffix}"
        return f"setlr {value}"
    if op == "nop":
        return "nop"
    # generic ALU forms
    if instr.info.has_imm:
        return f"{op} {instr.dst}, {instr.srcs[0]}, {instr.imm}"
    return f"{op} {instr.dst}, {instr.srcs[0]}, {instr.srcs[1]}"


def format_function(fn: Function) -> str:
    """Render a whole function, blocks in layout order."""
    lines: List[str] = []
    params = ", ".join(str(p) for p in fn.params)
    lines.append(f"func {fn.name}({params}):")
    for block in fn.blocks:
        lines.append(f"{block.name}:")
        for instr in block.instrs:
            lines.append(f"    {format_instr(instr)}")
    return "\n".join(lines) + "\n"
