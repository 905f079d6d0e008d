"""Bit-level machine-code emission and decoding.

Everything else in :mod:`repro.encoding` manipulates field *values*; this
module commits them to actual bits.  :func:`pack_function` serialises an
:class:`~repro.encoding.encoder.EncodedFunction` into a bitstream whose
register fields are ``DiffW`` bits wide; :func:`unpack_function` plays the
hardware's role — it reads opcodes, walks the register fields in access
order, maintains ``last_reg`` (honouring ``set_last_reg`` and its delay
counter), and reconstructs the original program.

The round trip is the reproduction's strongest soundness statement::

    unpack_function(pack_function(encode_function(fn, cfg)), cfg) == fn

— the decoded program has the *original* register numbers and no
``set_last_reg`` (the paper: "such instructions are removed after
decoding"), from a binary whose register fields really are ``DiffW`` bits.

Instruction formats (opcode 6 bits; fields in access order):

=============== ==========================================================
kind            payload
=============== ==========================================================
ALU r,r,r       3 register fields
ALU r,r,imm     2 register fields + imm32
li              1 register field + imm32
mov             2 register fields
ld / st         2/3 register fields + imm32 offset
ldslot/stslot   1 register field + imm16 slot
br              block16
conditional     2 register fields + block16
ret             1 register field
setlr           regw value + delay4 + class4
nop             —
=============== ==========================================================

Block labels are encoded as block indexes; block names travel in a side
table (a real toolchain would keep them in symbol metadata).  ``call`` is
not packable — its register effects are IR bookkeeping, not encoded fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.encoding.access_order import ACCESS_ORDERS
from repro.encoding.config import EncodingConfig
from repro.encoding.encoder import EncodedFunction, setlr_payload
from repro.ir.function import BasicBlock, Function
from repro.ir.instr import (
    ALU_IMM_OPS,
    ALU_REG_OPS,
    COND_BRANCH_OPS,
    Instr,
    OPCODES as _OPINFO,
    Reg,
)

__all__ = ["PackedProgram", "pack_function", "unpack_function", "PackError"]

_OPCODES: Tuple[str, ...] = tuple(sorted(
    set(ALU_REG_OPS) | set(ALU_IMM_OPS)
    | {"li", "mov", "ld", "st", "ldslot", "stslot", "br", "ret", "setlr",
       "nop"} | set(COND_BRANCH_OPS)
))
_OP_BITS = 6
_IMM_BITS = 32
_SLOT_BITS = 16
_BLOCK_BITS = 16
_DELAY_BITS = 4
_CLASS_BITS = 4


class PackError(ValueError):
    """Instruction or operand not representable in the binary format."""


class _BitWriter:
    def __init__(self) -> None:
        self.bits: List[int] = []

    def write(self, value: int, width: int) -> None:
        if value < 0 or value >= (1 << width):
            raise PackError(f"value {value} does not fit in {width} bits")
        for i in reversed(range(width)):
            self.bits.append((value >> i) & 1)

    def to_bytes(self) -> bytes:
        out = bytearray()
        for i in range(0, len(self.bits), 8):
            byte = 0
            for b in self.bits[i:i + 8]:
                byte = (byte << 1) | b
            byte <<= max(0, 8 - len(self.bits[i:i + 8]))
            out.append(byte)
        return bytes(out)

    def __len__(self) -> int:
        return len(self.bits)


class _BitReader:
    def __init__(self, data: bytes, n_bits: int) -> None:
        self.data = data
        self.n_bits = n_bits
        self.pos = 0

    def read(self, width: int) -> int:
        if self.pos + width > self.n_bits:
            raise PackError("bitstream underrun")
        value = 0
        for _ in range(width):
            byte = self.data[self.pos // 8]
            bit = (byte >> (7 - self.pos % 8)) & 1
            value = (value << 1) | bit
            self.pos += 1
        return value


@dataclass
class PackedProgram:
    """A function committed to bits."""

    name: str
    data: bytes
    n_bits: int
    block_names: Tuple[str, ...]
    block_sizes: Tuple[int, ...]     # instructions per block
    block_entries: Tuple[Tuple[Tuple[str, int], ...], ...]  # last_reg anchors
    params: Tuple[Tuple[int, bool, str], ...]  # (id, virtual, cls)
    config: EncodingConfig

    @property
    def size_bytes(self) -> float:
        return self.n_bits / 8.0


def _encode_imm(value: int, width: int) -> int:
    mask = (1 << width) - 1
    return value & mask


def _decode_imm(raw: int, width: int) -> int:
    if raw >= (1 << (width - 1)):
        return raw - (1 << width)
    return raw


def pack_function(enc: EncodedFunction) -> PackedProgram:
    """Serialise an encoded function into its differential bitstream."""
    config = enc.config
    order_fn = ACCESS_ORDERS[config.access_order]
    field_bits = config.field_bits
    reg_bits = max(1, math.ceil(math.log2(
        config.reg_n + len(config.direct_slots) or 2
    )))
    class_index = {cls: i for i, cls in enumerate(config.classes)}
    block_index = {b.name: i for i, b in enumerate(enc.fn.blocks)}
    w = _BitWriter()

    for block in enc.fn.blocks:
        for instr in block.instrs:
            if instr.op == "call":
                raise PackError("call instructions are not packable")
            if (config.access_order == "two_address"
                    and instr.op in ALU_REG_OPS
                    and instr.dst != instr.srcs[0]):
                raise PackError(
                    "two_address binaries need strictly two-address code; "
                    f"run to_two_address() first ({instr})"
                )
            w.write(_OPCODES.index(instr.op), _OP_BITS)
            if instr.op == "setlr":
                value, delay, cls = setlr_payload(instr)
                w.write(value, reg_bits)
                w.write(delay, _DELAY_BITS)
                w.write(class_index[cls], _CLASS_BITS)
                continue
            codes = list(enc.field_codes.get(instr.uid, ()))
            ci = 0
            for r in order_fn(instr):
                if r.cls != "int":
                    # a real ISA distinguishes classes by opcode; our generic
                    # ALU ops cannot, so the bitstream would be ambiguous
                    raise PackError(
                        "binary packing supports single-class (int) "
                        f"functions; found {r}"
                    )
                w.write(codes[ci], field_bits)
                ci += 1
            if instr.op in ("ldslot", "stslot"):
                w.write(int(instr.imm), _SLOT_BITS)
            elif instr.info.has_imm:
                w.write(_encode_imm(int(instr.imm), _IMM_BITS), _IMM_BITS)
            if instr.op == "br" or instr.op in COND_BRANCH_OPS:
                w.write(block_index[instr.label], _BLOCK_BITS)

    return PackedProgram(
        name=enc.fn.name,
        data=w.to_bytes(),
        n_bits=len(w),
        block_names=tuple(b.name for b in enc.fn.blocks),
        block_sizes=tuple(len(b.instrs) for b in enc.fn.blocks),
        block_entries=tuple(
            tuple(sorted(enc.entry_values[b.name].items()))
            for b in enc.fn.blocks
        ),
        params=tuple((p.id, p.virtual, p.cls) for p in enc.fn.params),
        config=config,
    )


def unpack_function(packed: PackedProgram,
                    config: Optional[EncodingConfig] = None,
                    collect_extents: Optional[List[Tuple[str, int, int, bool]]]
                    = None) -> Function:
    """Decode a packed program back to IR — the hardware decoder in software.

    Register fields are differential: the reader keeps one ``last_reg`` per
    class, applies ``set_last_reg`` (with its delay semantics) and drops
    those instructions from the output, exactly as the pipeline would.

    Each block is decoded from its recorded entry anchor
    (``PackedProgram.block_entries``): hardware reaches a block along CFG
    edges, which the encoder made consistent, while a linear disassembler
    flows across ``br``/``ret`` textual boundaries no execution crosses —
    the anchors stand in for the fetch path.

    ``collect_extents``, when given a list, receives one
    ``(block, start_bit, end_bit, is_setlr)`` tuple per decoded
    instruction — the disassembler's raw material.
    """
    config = config or packed.config
    order_fn = ACCESS_ORDERS[config.access_order]
    field_bits = config.field_bits
    reg_bits = max(1, math.ceil(math.log2(
        config.reg_n + len(config.direct_slots) or 2
    )))
    classes = list(config.classes)
    slot_to_reg = dict(config.direct_slots)
    r = _BitReader(packed.data, packed.n_bits)

    last: Dict[str, int] = {
        cls: config.initial_last_reg for cls in classes
    }
    pending: List[List[object]] = []

    def tick() -> None:
        fire = []
        for entry in pending:
            entry[0] -= 1  # type: ignore[operator]
            if entry[0] == 0:
                fire.append(entry)
        for entry in fire:
            pending.remove(entry)
            last[entry[2]] = entry[1]  # type: ignore[index]

    def read_field(cls: str) -> Reg:
        code = r.read(field_bits)
        if code >= config.diff_n:
            rid = slot_to_reg.get(code)
            if rid is None:
                raise PackError(f"invalid direct slot code {code}")
            reg = Reg(rid, virtual=False, cls=cls)
        else:
            rid = (last[cls] + code) % config.reg_n
            last[cls] = rid
            reg = Reg(rid, virtual=False, cls=cls)
        tick()
        return reg

    blocks: List[BasicBlock] = []
    for name, size, entry in zip(packed.block_names, packed.block_sizes,
                                 packed.block_entries):
        # anchor the decoder at this block's entry state: hardware reaches
        # it along CFG edges (which the encoder made consistent); a linear
        # disassembler flowing across a `br`/`ret` textual boundary would
        # otherwise carry a state no execution ever produces
        last.update(dict(entry))
        pending.clear()
        block = BasicBlock(name)
        decoded = 0
        while decoded < size:
            start_bit = r.pos
            op = _OPCODES[r.read(_OP_BITS)]
            decoded += 1
            if op == "setlr":
                value = r.read(reg_bits)
                delay = r.read(_DELAY_BITS)
                cls = classes[r.read(_CLASS_BITS)]
                if delay == 0:
                    last[cls] = value
                else:
                    pending.append([delay, value, cls])
                if collect_extents is not None:
                    collect_extents.append((name, start_bit, r.pos, True))
                continue  # removed after decoding (§2.3)
            opinfo = _OPINFO[op]
            # fields arrive in access order; rebuild srcs/dst from it
            if (config.access_order == "two_address"
                    and op in ALU_REG_OPS):
                # strict two-address form: one field is both dst and src1
                fields = [read_field("int") for _ in range(2)]
                dst = fields[0]
                srcs = (fields[0], fields[1])
            else:
                n_fields = opinfo.n_src + (1 if opinfo.has_dst else 0)
                fields = [read_field("int") for _ in range(n_fields)]
                if config.access_order == "dst_first":
                    dst = fields[0] if opinfo.has_dst else None
                    srcs = tuple(fields[1 if opinfo.has_dst else 0:])
                else:  # src_first (also two_address non-ALU forms)
                    srcs = tuple(fields[:opinfo.n_src])
                    dst = fields[opinfo.n_src] if opinfo.has_dst else None
            imm: object = None
            label: Optional[str] = None
            if op in ("ldslot", "stslot"):
                imm = r.read(_SLOT_BITS)
            elif opinfo.has_imm:
                imm = _decode_imm(r.read(_IMM_BITS), _IMM_BITS)
            if op == "br" or op in COND_BRANCH_OPS:
                label = packed.block_names[r.read(_BLOCK_BITS)]
            if collect_extents is not None:
                collect_extents.append((name, start_bit, r.pos, False))
            block.append(Instr(op, dst=dst, srcs=srcs, imm=imm, label=label))
        blocks.append(block)

    params = tuple(
        Reg(rid, virtual=virtual, cls=cls)
        for rid, virtual, cls in packed.params
    )
    return Function(packed.name, blocks, params)
