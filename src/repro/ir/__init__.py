"""Three-address RISC intermediate representation.

This package provides the compiler substrate the paper's algorithms run on:
register operands (:class:`Reg`), instructions (:class:`Instr`), basic blocks
and functions (:class:`BasicBlock`, :class:`Function`), a builder DSL
(:class:`FunctionBuilder`), a textual assembly parser/printer, and an
executable interpreter used by the trace-driven timing models.
"""

from repro.ir.instr import (
    Instr,
    Reg,
    OPCODES,
    OpInfo,
    BRANCH_OPS,
    COND_BRANCH_OPS,
    MEMORY_OPS,
    phys,
    vreg,
)
from repro.ir.function import BasicBlock, Function
from repro.ir.builder import FunctionBuilder
from repro.ir.printer import format_function, format_instr
from repro.ir.parser import parse_function, ParseError
from repro.ir.interp import ExecutionResult, Interpreter, InterpError
from repro.ir.trace import ColumnarTrace, FunctionCodec, derive_trace
from repro.ir.lowering import is_two_address, to_two_address

__all__ = [
    "is_two_address",
    "to_two_address",
    "Instr",
    "Reg",
    "OPCODES",
    "OpInfo",
    "BRANCH_OPS",
    "COND_BRANCH_OPS",
    "MEMORY_OPS",
    "phys",
    "vreg",
    "BasicBlock",
    "Function",
    "FunctionBuilder",
    "format_function",
    "format_instr",
    "parse_function",
    "ParseError",
    "ExecutionResult",
    "Interpreter",
    "InterpError",
    "ColumnarTrace",
    "FunctionCodec",
    "derive_trace",
]
