"""An executable interpreter for the IR.

The low-end evaluation (Section 10.1) is trace driven: the interpreter runs a
kernel and records the dynamic instruction stream; the timing model in
:mod:`repro.machine.lowend` then assigns cycles to that stream.  The
interpreter works identically on virtual-register code (pre-allocation) and
physical-register code (post-allocation), which lets tests assert that
register allocation and differential remapping preserve program semantics.

Two engines implement the same semantics:

* the **fast engine** (default) pre-decodes each static instruction once
  into a zero-argument closure, so the per-dynamic-step cost is one
  indirect call instead of a string-dispatch chain.  With tracing on it
  records the compact block path / data-address form and assembles a
  :class:`repro.ir.trace.ColumnarTrace`, the one trace form the timing
  model times.  It models every block as an executed prefix ending in
  its only branch, so a branch that is not the last instruction of its
  block (which the parser, ``Function.validate`` and lint L001 reject)
  raises :class:`InterpError`.
* the **reference engine** is the original per-step dispatch loop, kept
  verbatim as ``_run_reference`` and selected by ``engine="reference"``.
  It records the object trace (one :class:`TraceEntry` per step) and is
  the oracle the fast engine is tested against.

Semantics notes:

* Values are Python ints truncated to 32-bit two's complement after every
  ALU op.
* ``ld``/``st`` address a flat word-addressed memory (a dict); ``ldslot`` /
  ``stslot`` address an abstract spill-slot file, disjoint from memory.
* ``setlr`` executes as a no-op: it only matters to the decode stage.
* ``call`` assigns zero to its ``call_defs`` — the workloads are leaf
  kernels; calls appear only in calling-convention tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.ir.function import Function
from repro.ir.instr import BRANCH_OPS, COND_BRANCH_OPS, Instr, Reg
from repro.ir.trace import ColumnarTrace, FunctionCodec

__all__ = ["Interpreter", "ExecutionResult", "InterpError", "TraceEntry"]

_MASK = 0xFFFFFFFF


def _wrap(x: int) -> int:
    """Truncate to signed 32-bit."""
    x &= _MASK
    return x - (1 << 32) if x >= (1 << 31) else x


class InterpError(RuntimeError):
    """Raised on runtime faults: undefined register read, step overrun, ..."""


@dataclass
class TraceEntry:
    """One dynamically executed instruction.

    ``static_index`` is the instruction's position in layout order — the
    timing model turns it into a PC for the I-cache.  ``mem_addr`` is the
    effective data address for ``ld``/``st`` (``None`` otherwise;
    spill-slot ops report a synthetic address in a reserved region so the
    D-cache sees spill traffic, as it would on real hardware).
    """

    instr: Instr
    static_index: int
    mem_addr: Optional[int] = None


@dataclass
class ExecutionResult:
    """Outcome of running a function.

    ``columnar`` is the fast engine's recorded trace (``None`` without
    recording); ``trace`` is the reference engine's object-form stream
    (empty from the fast engine).  ``block_instr_counts`` maps block name
    to the number of instructions dynamically executed in that block —
    enough to reconstruct profiles without walking any trace.
    """

    return_value: int
    steps: int
    trace: List[TraceEntry] = field(default_factory=list)
    regs: Dict[Reg, int] = field(default_factory=dict)
    dynamic_counts: Dict[str, int] = field(default_factory=dict)
    columnar: Optional[ColumnarTrace] = None
    block_instr_counts: Dict[str, int] = field(default_factory=dict)

    def count(self, op: str) -> int:
        """Dynamic execution count of one opcode (O(1) table lookup)."""
        if not self.dynamic_counts and self.columnar is not None:
            # derived results (trace reuse) carry only the columns; build
            # the table once and serve every later lookup from it
            self.dynamic_counts = self.columnar.counts()
        return self.dynamic_counts.get(op, 0)


_SPILL_REGION_BASE = 1 << 24  # synthetic addresses for spill slots


def _alu_add(a, b):
    return _wrap(a + b)


def _alu_sub(a, b):
    return _wrap(a - b)


def _alu_mul(a, b):
    return _wrap(a * b)


def _alu_div(a, b):
    if b == 0:
        raise InterpError("division by zero")
    return _wrap(int(a / b))  # C-style truncating division


def _alu_rem(a, b):
    if b == 0:
        raise InterpError("remainder by zero")
    return _wrap(a - int(a / b) * b)


def _alu_and(a, b):
    return _wrap(a & b)


def _alu_or(a, b):
    return _wrap(a | b)


def _alu_xor(a, b):
    return _wrap(a ^ b)


def _alu_shl(a, b):
    return _wrap(a << (b & 31))


def _alu_shr(a, b):
    return _wrap((a & _MASK) >> (b & 31))


def _alu_slt(a, b):
    return 1 if a < b else 0


def _alu_sge(a, b):
    return 1 if a >= b else 0


# binary ALU semantics shared by the register and immediate forms; each
# function matches the corresponding expression in ``_alu`` exactly
_ALU2 = {
    "add": _alu_add, "addi": _alu_add,
    "sub": _alu_sub, "subi": _alu_sub,
    "mul": _alu_mul, "muli": _alu_mul,
    "div": _alu_div,
    "rem": _alu_rem,
    "and": _alu_and, "andi": _alu_and,
    "or": _alu_or, "ori": _alu_or,
    "xor": _alu_xor, "xori": _alu_xor,
    "shl": _alu_shl, "shli": _alu_shl,
    "shr": _alu_shr, "shri": _alu_shr,
    "slt": _alu_slt, "slti": _alu_slt,
    "sge": _alu_sge,
}

_CMP = {
    "beq": lambda a, b: a == b,
    "bne": lambda a, b: a != b,
    "blt": lambda a, b: a < b,
    "bge": lambda a, b: a >= b,
    "bgt": lambda a, b: a > b,
    "ble": lambda a, b: a <= b,
}

# terminator kinds for compiled blocks
_T_FALL, _T_BR, _T_COND, _T_RET = 0, 1, 2, 3


def _nop_step():
    return None


class _CompiledBlock:
    """Pre-decoded executed prefix of one basic block."""

    __slots__ = ("steps", "slow_steps", "n", "term_kind", "term_target",
                 "term_label", "cmp", "s0", "s1", "ret_src")

    def __init__(self) -> None:
        self.steps: List = []
        self.slow_steps: List = []
        self.n = 0
        self.term_kind = _T_FALL
        self.term_target: Optional[int] = None
        self.term_label: Optional[str] = None
        self.cmp = None
        self.s0: Optional[Reg] = None
        self.s1: Optional[Reg] = None
        self.ret_src: Optional[Reg] = None


class Interpreter:
    """Execute a :class:`Function`.

    Args:
        max_steps: hard bound on dynamic instructions, to catch diverging
            or miscompiled programs in tests.
        record_trace: disable for speed when only the result matters; the
            disabled path allocates no per-step objects at all.
        engine: ``"fast"`` (pre-decoded closures) or ``"reference"`` (the
            original dispatch loop).
    """

    def __init__(self, max_steps: int = 2_000_000, record_trace: bool = True,
                 engine: str = "fast") -> None:
        if engine not in ("fast", "reference"):
            raise ValueError(f"unknown engine {engine!r}")
        self.max_steps = max_steps
        self.record_trace = record_trace
        self.engine = engine

    def run(self, fn: Function, args: Tuple[int, ...] = (),
            memory: Optional[Dict[int, int]] = None) -> ExecutionResult:
        """Run ``fn`` with ``args`` bound to its parameters.

        ``memory`` (word address -> value) is mutated in place, so callers
        can inspect stores after the run.
        """
        if self.engine == "reference":
            return self._run_reference(fn, args, memory)
        return self._run_fast(fn, args, memory)

    # ------------------------------------------------------------------
    # fast engine: per-block pre-decode into closures
    # ------------------------------------------------------------------

    def _run_fast(self, fn: Function, args: Tuple[int, ...] = (),
                  memory: Optional[Dict[int, int]] = None) -> ExecutionResult:
        if len(args) != len(fn.params):
            raise InterpError(
                f"{fn.name} expects {len(fn.params)} args, got {len(args)}"
            )
        regs: Dict[Reg, int] = dict(zip(fn.params, args))
        mem: Dict[int, int] = memory if memory is not None else {}
        slots: Dict[int, int] = {}
        recording = self.record_trace
        dyn_mem: List[int] = []
        path: List[int] = []

        codec = FunctionCodec(fn)
        compiled = self._compile(fn, codec, regs, mem, slots, dyn_mem,
                                 recording)

        max_steps = self.max_steps
        n_blocks = len(fn.blocks)
        exec_counts = [0] * n_blocks
        path_append = path.append
        undef = f"read of undefined register {{}} in {fn.name}"
        overrun = f"{fn.name}: exceeded {max_steps} steps (diverging?)"
        off_end = f"{fn.name}: fell off the end"

        block_idx = 0
        steps = 0
        while True:
            if steps >= max_steps:
                raise InterpError(overrun)
            cb = compiled[block_idx]
            n = cb.n
            if steps + n > max_steps:
                # the overrun happens inside this block: replay it one
                # instruction at a time so the caller-visible memory holds
                # exactly the stores the reference loop would have made
                try:
                    for f in cb.slow_steps:
                        if steps >= max_steps:
                            raise InterpError(overrun)
                        steps += 1
                        f()
                except KeyError as e:
                    raise InterpError(undef.format(e.args[0]))
                raise InterpError(overrun)
            steps += n
            exec_counts[block_idx] += 1
            if recording:
                path_append(block_idx)
            try:
                for f in cb.steps:
                    f()
            except KeyError as e:
                raise InterpError(undef.format(e.args[0]))

            kind = cb.term_kind
            if kind == _T_COND:
                try:
                    a = regs[cb.s0]
                    b = regs[cb.s1]
                except KeyError as e:
                    raise InterpError(undef.format(e.args[0]))
                if cb.cmp(a, b):
                    block_idx = (cb.term_target if cb.term_target is not None
                                 else fn.block_index(cb.term_label))
                else:
                    block_idx += 1
                    if block_idx >= n_blocks:
                        if steps >= max_steps:
                            raise InterpError(overrun)
                        raise InterpError(off_end)
            elif kind == _T_FALL:
                block_idx += 1
                if block_idx >= n_blocks:
                    if steps >= max_steps:
                        raise InterpError(overrun)
                    raise InterpError(off_end)
            elif kind == _T_RET:
                try:
                    value = regs[cb.ret_src]
                except KeyError as e:
                    raise InterpError(undef.format(e.args[0]))
                break
            else:  # _T_BR
                block_idx = (cb.term_target if cb.term_target is not None
                             else fn.block_index(cb.term_label))

        counts: Dict[str, int] = {}
        bic: Dict[str, int] = {}
        for bid in range(n_blocks):
            ops = codec.prefix_ops[bid]
            c = exec_counts[bid]
            bic[codec.block_names[bid]] = c * len(ops)
            if c:
                for op in ops:
                    counts[op] = counts.get(op, 0) + c

        columnar = codec.assemble(path, dyn_mem) if recording else None
        return ExecutionResult(value, steps, regs=regs, dynamic_counts=counts,
                               columnar=columnar, block_instr_counts=bic)

    def _compile(self, fn: Function, codec: FunctionCodec,
                 regs: Dict[Reg, int], mem: Dict[int, int],
                 slots: Dict[int, int], dyn_mem: List[int],
                 recording: bool) -> List[_CompiledBlock]:
        """Pre-decode every block's executed prefix."""
        compiled: List[_CompiledBlock] = []
        for bid, block in enumerate(fn.blocks):
            prefix = codec.prefixes[bid]
            if len(prefix) < len(block.instrs):
                # the not-taken tail would be reachable, which the prefix
                # model cannot express
                raise InterpError(
                    f"{fn.name}/{block.name}: branch {prefix[-1].op} "
                    f"not at block end")
            cb = _CompiledBlock()
            cb.n = len(prefix)
            term = (prefix[-1]
                    if prefix and prefix[-1].op in BRANCH_OPS else None)
            body = prefix[:-1] if term is not None else prefix
            for instr in body:
                cb.steps.append(self._compile_step(
                    instr, regs, mem, slots, dyn_mem, recording))
            # the slow (overrun) path counts the terminator as a step but
            # provably raises before reaching it; a placeholder keeps the
            # closure list aligned with the prefix
            cb.slow_steps = cb.steps + ([_nop_step] if term is not None else [])
            if term is None:
                cb.term_kind = _T_FALL
            elif term.op == "ret":
                cb.term_kind = _T_RET
                cb.ret_src = term.srcs[0]
            else:
                cb.term_label = term.label
                try:
                    cb.term_target = fn.block_index(term.label)
                except Exception:
                    # resolve lazily so a never-taken branch to a bogus
                    # label behaves exactly as in the reference loop
                    cb.term_target = None
                if term.op == "br":
                    cb.term_kind = _T_BR
                else:
                    cb.term_kind = _T_COND
                    cb.cmp = _CMP[term.op]
                    cb.s0, cb.s1 = term.srcs[0], term.srcs[1]
            compiled.append(cb)
        return compiled

    @staticmethod
    def _compile_step(instr: Instr, regs: Dict[Reg, int],
                      mem: Dict[int, int], slots: Dict[int, int],
                      dyn_mem: List[int], recording: bool):
        """One non-terminator instruction as a zero-argument closure.

        Register reads are plain dict lookups; the driver translates a
        ``KeyError`` into the reference engine's undefined-register fault.
        """
        op = instr.op
        if op == "li":
            d, v = instr.dst, _wrap(instr.imm)

            def step(regs=regs, d=d, v=v):
                regs[d] = v
        elif op == "mov":
            d, s = instr.dst, instr.srcs[0]

            def step(regs=regs, d=d, s=s):
                regs[d] = regs[s]
        elif op == "ld":
            d, s, imm = instr.dst, instr.srcs[0], instr.imm
            if recording:
                def step(regs=regs, mem=mem, rec=dyn_mem.append,
                         d=d, s=s, imm=imm):
                    addr = _wrap(regs[s] + imm)
                    regs[d] = mem.get(addr, 0)
                    rec(addr)
            else:
                def step(regs=regs, mem=mem, d=d, s=s, imm=imm):
                    regs[d] = mem.get(_wrap(regs[s] + imm), 0)
        elif op == "st":
            v, a, imm = instr.srcs[0], instr.srcs[1], instr.imm
            if recording:
                def step(regs=regs, mem=mem, rec=dyn_mem.append,
                         v=v, a=a, imm=imm):
                    addr = _wrap(regs[a] + imm)
                    mem[addr] = regs[v]
                    rec(addr)
            else:
                def step(regs=regs, mem=mem, v=v, a=a, imm=imm):
                    mem[_wrap(regs[a] + imm)] = regs[v]
        elif op == "ldslot":
            d, slot = instr.dst, instr.imm

            def step(regs=regs, slots=slots, d=d, slot=slot):
                regs[d] = slots.get(slot, 0)
        elif op == "stslot":
            s, slot = instr.srcs[0], instr.imm

            def step(regs=regs, slots=slots, s=s, slot=slot):
                slots[slot] = regs[s]
        elif op == "setlr" or op == "nop":
            step = _nop_step
        elif op == "call":
            defs = instr.call_defs

            def step(regs=regs, defs=defs):
                for d in defs:
                    regs[d] = 0
        else:
            f = _ALU2[op]
            d = instr.dst
            if len(instr.srcs) > 1:
                s0, s1 = instr.srcs[0], instr.srcs[1]

                def step(regs=regs, f=f, d=d, s0=s0, s1=s1):
                    regs[d] = f(regs[s0], regs[s1])
            else:
                s0, b = instr.srcs[0], int(instr.imm)

                def step(regs=regs, f=f, d=d, s0=s0, b=b):
                    regs[d] = f(regs[s0], b)
        return step

    # ------------------------------------------------------------------
    # reference engine: the original per-step dispatch loop
    # ------------------------------------------------------------------

    def _run_reference(self, fn: Function, args: Tuple[int, ...] = (),
                       memory: Optional[Dict[int, int]] = None
                       ) -> ExecutionResult:
        if len(args) != len(fn.params):
            raise InterpError(
                f"{fn.name} expects {len(fn.params)} args, got {len(args)}"
            )
        regs: Dict[Reg, int] = dict(zip(fn.params, args))
        mem: Dict[int, int] = memory if memory is not None else {}
        slots: Dict[int, int] = {}
        static_index = {
            instr.uid: i for i, instr in enumerate(fn.instructions())
        }
        trace: List[TraceEntry] = []
        counts: Dict[str, int] = {}

        def read(r: Reg) -> int:
            try:
                return regs[r]
            except KeyError:
                raise InterpError(f"read of undefined register {r} in {fn.name}")

        block_idx = 0
        instr_idx = 0
        steps = 0
        while True:
            if steps >= self.max_steps:
                raise InterpError(
                    f"{fn.name}: exceeded {self.max_steps} steps (diverging?)"
                )
            block = fn.blocks[block_idx]
            if instr_idx >= len(block.instrs):
                # fall through to the next block in layout order
                block_idx += 1
                instr_idx = 0
                if block_idx >= len(fn.blocks):
                    raise InterpError(f"{fn.name}: fell off the end")
                continue
            instr = block.instrs[instr_idx]
            steps += 1
            counts[instr.op] = counts.get(instr.op, 0) + 1
            mem_addr: Optional[int] = None
            op = instr.op

            if op == "li":
                regs[instr.dst] = _wrap(instr.imm)
            elif op == "mov":
                regs[instr.dst] = read(instr.srcs[0])
            elif op == "ld":
                mem_addr = _wrap(read(instr.srcs[0]) + instr.imm)
                regs[instr.dst] = mem.get(mem_addr, 0)
            elif op == "st":
                mem_addr = _wrap(read(instr.srcs[1]) + instr.imm)
                mem[mem_addr] = read(instr.srcs[0])
            elif op == "ldslot":
                mem_addr = _SPILL_REGION_BASE + int(instr.imm)
                regs[instr.dst] = slots.get(instr.imm, 0)
            elif op == "stslot":
                mem_addr = _SPILL_REGION_BASE + int(instr.imm)
                slots[instr.imm] = read(instr.srcs[0])
            elif op == "setlr" or op == "nop":
                pass
            elif op == "call":
                for d in instr.call_defs:
                    regs[d] = 0
            elif op == "ret":
                value = read(instr.srcs[0])
                if self.record_trace:
                    trace.append(TraceEntry(instr, static_index[instr.uid]))
                return ExecutionResult(value, steps, trace, regs, counts)
            elif op == "br":
                if self.record_trace:
                    trace.append(TraceEntry(instr, static_index[instr.uid]))
                block_idx = fn.block_index(instr.label)
                instr_idx = 0
                continue
            elif op in COND_BRANCH_OPS:
                a, b = read(instr.srcs[0]), read(instr.srcs[1])
                taken = {
                    "beq": a == b,
                    "bne": a != b,
                    "blt": a < b,
                    "bge": a >= b,
                    "bgt": a > b,
                    "ble": a <= b,
                }[op]
                if self.record_trace:
                    trace.append(TraceEntry(instr, static_index[instr.uid]))
                if taken:
                    block_idx = fn.block_index(instr.label)
                    instr_idx = 0
                else:
                    instr_idx += 1
                continue
            else:
                regs[instr.dst] = self._alu(op, instr, read)

            if self.record_trace:
                trace.append(
                    TraceEntry(instr, static_index[instr.uid], mem_addr)
                )
            instr_idx += 1

    @staticmethod
    def _alu(op: str, instr: Instr, read) -> int:
        a = read(instr.srcs[0])
        b = read(instr.srcs[1]) if len(instr.srcs) > 1 else int(instr.imm)
        if op in ("add", "addi"):
            return _wrap(a + b)
        if op in ("sub", "subi"):
            return _wrap(a - b)
        if op in ("mul", "muli"):
            return _wrap(a * b)
        if op == "div":
            if b == 0:
                raise InterpError("division by zero")
            return _wrap(int(a / b))  # C-style truncating division
        if op == "rem":
            if b == 0:
                raise InterpError("remainder by zero")
            return _wrap(a - int(a / b) * b)
        if op in ("and", "andi"):
            return _wrap(a & b)
        if op in ("or", "ori"):
            return _wrap(a | b)
        if op in ("xor", "xori"):
            return _wrap(a ^ b)
        if op in ("shl", "shli"):
            return _wrap(a << (b & 31))
        if op in ("shr", "shri"):
            return _wrap((a & _MASK) >> (b & 31))
        if op in ("slt", "slti"):
            return 1 if a < b else 0
        if op == "sge":
            return 1 if a >= b else 0
        raise InterpError(f"unimplemented opcode {op}")
