"""Instruction and register operand definitions.

The IR is a classless three-address RISC modelled on the machines the paper
targets (ARM/THUMB-like for the low-end study, a generic VLIW for the
software-pipelining study).  Register operands are :class:`Reg` values; an
instruction's register *fields* appear in a well-defined order (sources first,
then the destination) which is also the paper's default *access order*
(Section 2: ``src1, src2 ... dst``).

Opcode summary
--------------

========== =========================== ==========================
kind       opcodes                     operands
========== =========================== ==========================
ALU r,r    add sub mul div rem and or  ``dst, src1, src2``
           xor shl shr slt sge
ALU r,imm  addi subi muli andi ori     ``dst, src1, imm``
           xori shli shri slti
data       li (``dst, imm``), mov      ``dst, src``
memory     ld (``dst, [addr+imm]``),   ``st`` stores ``val`` to
           st (``val, [addr+imm]``)    ``[addr+imm]``; no def
spill      ldslot (``dst, slot``),     abstract frame slots used
           stslot (``src, slot``)      by spill-code insertion
control    br / beq bne blt bge bgt    labels name basic blocks
           ble / ret
call       call                        explicit use/def reg lists
decode     setlr                       ``set_last_reg(value[, delay])``
========== =========================== ==========================

``setlr`` is the paper's ``set_last_reg`` ISA extension (Section 2.3).  It
carries no register fields — its payload lives in ``instr.imm`` as a
``(value, delay)`` pair — and it is discarded after the decode stage, which
the timing model honours.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Reg",
    "Instr",
    "OpInfo",
    "OPCODES",
    "BRANCH_OPS",
    "COND_BRANCH_OPS",
    "MEMORY_OPS",
    "ALU_REG_OPS",
    "ALU_IMM_OPS",
    "phys",
    "vreg",
]


class Reg(tuple):
    """A register operand.

    ``virtual`` registers (``v0, v1, ...``) exist before register allocation;
    physical registers (``r0, r1, ...``) exist after.  ``cls`` names the
    register class (Section 9.1) — the default single class is ``"int"``.

    A ``Reg`` is an immutable ``(id, virtual, cls)`` tuple, so hashing,
    equality and ordering run as C tuple operations.  The hash equals
    ``hash((id, virtual, cls))`` — the value a frozen dataclass over the
    same three fields produces — and ordering is tuple order.  Being a
    tuple it also equals the plain tuple of its fields and has length 3;
    format it with ``str()`` or an f-string, never ``"%s" % reg``.
    """

    __slots__ = ()

    def __new__(klass, id: int, virtual: bool = True,
                cls: str = "int") -> "Reg":
        if id < 0:
            raise ValueError(f"register id must be non-negative, got {id}")
        return tuple.__new__(klass, (id, virtual, cls))

    id = property(itemgetter(0), doc="register number")
    virtual = property(itemgetter(1), doc="True before allocation")
    cls = property(itemgetter(2), doc="register class name")

    def __getnewargs__(self) -> Tuple[int, bool, str]:
        return tuple(self)

    def __str__(self) -> str:
        prefix = "v" if self.virtual else "r"
        suffix = "" if self.cls == "int" else f".{self.cls}"
        return f"{prefix}{self.id}{suffix}"

    __repr__ = __str__


def vreg(rid: int, cls: str = "int") -> Reg:
    """Shorthand for a virtual register."""
    return Reg(rid, virtual=True, cls=cls)


def phys(rid: int, cls: str = "int") -> Reg:
    """Shorthand for a physical (architected) register."""
    return Reg(rid, virtual=False, cls=cls)


@dataclass(frozen=True)
class OpInfo:
    """Static properties of an opcode."""

    name: str
    n_src: int  # register sources
    has_dst: bool
    has_imm: bool
    is_branch: bool = False
    is_cond_branch: bool = False
    is_memory: bool = False
    is_store: bool = False
    latency: int = 1


def _op(name: str, n_src: int, has_dst: bool, has_imm: bool, **kw) -> OpInfo:
    return OpInfo(name, n_src, has_dst, has_imm, **kw)


ALU_REG_OPS: Tuple[str, ...] = (
    "add", "sub", "mul", "div", "rem", "and", "or", "xor", "shl", "shr",
    "slt", "sge",
)
ALU_IMM_OPS: Tuple[str, ...] = (
    "addi", "subi", "muli", "andi", "ori", "xori", "shli", "shri", "slti",
)
COND_BRANCH_OPS: FrozenSet[str] = frozenset(
    {"beq", "bne", "blt", "bge", "bgt", "ble"}
)
BRANCH_OPS: FrozenSet[str] = COND_BRANCH_OPS | {"br", "ret"}
MEMORY_OPS: FrozenSet[str] = frozenset({"ld", "st", "ldslot", "stslot"})

_LONG_LATENCY = {"mul": 2, "div": 8, "rem": 8, "ld": 2, "ldslot": 2}

OPCODES: Dict[str, OpInfo] = {}
for _name in ALU_REG_OPS:
    OPCODES[_name] = _op(_name, 2, True, False, latency=_LONG_LATENCY.get(_name, 1))
for _name in ALU_IMM_OPS:
    OPCODES[_name] = _op(_name, 1, True, True)
OPCODES["li"] = _op("li", 0, True, True)
OPCODES["mov"] = _op("mov", 1, True, False)
OPCODES["ld"] = _op("ld", 1, True, True, is_memory=True, latency=2)
OPCODES["st"] = _op("st", 2, False, True, is_memory=True, is_store=True)
OPCODES["ldslot"] = _op("ldslot", 0, True, True, is_memory=True, latency=2)
OPCODES["stslot"] = _op("stslot", 1, False, True, is_memory=True, is_store=True)
OPCODES["br"] = _op("br", 0, False, False, is_branch=True)
for _name in COND_BRANCH_OPS:
    OPCODES[_name] = _op(_name, 2, False, False, is_branch=True, is_cond_branch=True)
OPCODES["ret"] = _op("ret", 1, False, False, is_branch=True)
OPCODES["call"] = _op("call", 0, False, False)
OPCODES["setlr"] = _op("setlr", 0, False, True)
OPCODES["nop"] = _op("nop", 0, False, False)


_counter = [0]


def _next_uid() -> int:
    _counter[0] += 1
    return _counter[0]


@dataclass(slots=True)
class Instr:
    """One three-address instruction.

    Attributes:
        op: opcode name; must be a key of :data:`OPCODES`.
        dst: destination register, or ``None``.
        srcs: source registers, in field order.
        imm: immediate payload.  For ``setlr`` this is a ``(value, delay)``
            tuple; for memory ops it is the address offset or slot number.
        label: branch target block name, for control-flow ops and ``call``.
        call_uses / call_defs: explicit register effects of a ``call``
            (argument registers / caller-saved clobbers + return value).
        uid: unique id, stable across copies made with :meth:`copy`, used to
            key per-instruction side tables (e.g. decode repairs).
    """

    op: str
    dst: Optional[Reg] = None
    srcs: Tuple[Reg, ...] = ()
    imm: object = None
    label: Optional[str] = None
    call_uses: Tuple[Reg, ...] = ()
    call_defs: Tuple[Reg, ...] = ()
    uid: int = field(default_factory=_next_uid)

    def __post_init__(self) -> None:
        if self.op not in OPCODES:
            raise ValueError(f"unknown opcode {self.op!r}")
        self.srcs = tuple(self.srcs)
        info = OPCODES[self.op]
        if self.op != "call" and len(self.srcs) != info.n_src:
            raise ValueError(
                f"{self.op} expects {info.n_src} sources, got {len(self.srcs)}"
            )
        if info.has_dst and self.dst is None:
            raise ValueError(f"{self.op} requires a destination register")
        if not info.has_dst and self.dst is not None:
            raise ValueError(f"{self.op} takes no destination register")

    @property
    def info(self) -> OpInfo:
        return OPCODES[self.op]

    def uses(self) -> Tuple[Reg, ...]:
        """Registers read by this instruction, in field order."""
        if self.op == "call":
            return self.srcs + self.call_uses
        return self.srcs

    def defs(self) -> Tuple[Reg, ...]:
        """Registers written by this instruction."""
        if self.op == "call":
            return self.call_defs
        return (self.dst,) if self.dst is not None else ()

    def reg_fields(self) -> Tuple[Reg, ...]:
        """Register *fields* as they appear in the instruction encoding.

        This is the unit the differential encoder works on: sources in field
        order followed by the destination (the paper's default access order).
        ``call`` side-effect registers are not encoded fields.
        """
        fields: List[Reg] = list(self.srcs)
        if self.dst is not None:
            fields.append(self.dst)
        return tuple(fields)

    def rewrite(self, mapping: Dict[Reg, Reg]) -> "Instr":
        """Return a copy with every register replaced through ``mapping``.

        Registers absent from ``mapping`` are kept as-is.
        """
        new = self.copy()
        sub = lambda r: mapping.get(r, r)  # noqa: E731 - tiny local helper
        if self.dst is not None:
            new.dst = sub(self.dst)
        new.srcs = tuple(sub(s) for s in self.srcs)
        new.call_uses = tuple(sub(s) for s in self.call_uses)
        new.call_defs = tuple(sub(s) for s in self.call_defs)
        return new

    def copy(self) -> "Instr":
        """Shallow copy preserving ``uid``.

        The fields of an existing instruction were validated when it was
        built, so the copy is assembled slot by slot without re-running
        ``__init__``.
        """
        new = object.__new__(Instr)
        new.op = self.op
        new.dst = self.dst
        new.srcs = self.srcs
        new.imm = self.imm
        new.label = self.label
        new.call_uses = self.call_uses
        new.call_defs = self.call_defs
        new.uid = self.uid
        return new

    def is_move(self) -> bool:
        """Whether this is a register-to-register copy."""
        return self.op == "mov"

    def __str__(self) -> str:  # pragma: no cover - delegated to printer
        from repro.ir.printer import format_instr

        return format_instr(self)
