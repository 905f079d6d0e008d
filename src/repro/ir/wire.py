"""Compact wire codec for functions: flat columns instead of object graphs.

Pickling a :class:`~repro.ir.function.Function` walks thousands of small
objects — ``Instr`` dataclasses, ``Reg`` tuples, per-field memo dicts —
and that cost is paid *per task* on every process-pool dispatch.  This
module flattens a function into one contiguous ``bytes`` payload the way
the columnar trace layer flattens execution (:mod:`repro.ir.trace`) and
the binary encoder flattens encodings (:mod:`repro.encoding.binary`):

* a **string table** (function name, block names, branch labels,
  register classes) — every string stored once, referenced by index;
* **per-instruction columns** — opcode code, destination register code,
  flattened source registers with per-instruction counts, immediate
  kind/values, label index, call use/def lists, uid;
* **register codes** — one integer per operand:
  ``(id << 9) | (class_index << 1) | virtual``;
* **width-adaptive sections** — every column is stored at the narrowest
  of int8/int16/int32/int64 that holds its values, so a typical column
  (opcodes, source counts, small register codes) costs one or two bytes
  per instruction instead of a pickled object reference.

``from_wire(to_wire(f))`` reproduces ``f`` exactly up to instruction
``uid``s (compare with :func:`functions_structurally_equal`); pass
``preserve_uids=True`` to round-trip uids too.  By default decoded
instructions draw **fresh local uids**, which is what cross-process
shipping wants: a decoded function behaves like one freshly built in the
receiving process, so uid-keyed side tables (decode repairs, checker
anchors) can never collide with uids minted later in that process.

This is an **IPC format, not a storage format**: payloads use native
byte order and the current opcode table, and are only meaningful between
processes running the same code — exactly the worker-fleet use case.
The versioned on-disk formats live in :mod:`repro.experiments.persist`
and the artifact store.
"""

from __future__ import annotations

import struct
from array import array
from typing import Dict, List, Sequence, Tuple

from repro.ir.function import BasicBlock, Function
from repro.ir.instr import OPCODES, Instr, Reg, _next_uid
from repro.ir.trace import OP_CODE, OP_NAMES

__all__ = ["WireError", "to_wire", "from_wire",
           "functions_structurally_equal", "wire_stats"]

_MAGIC = b"RWIR"
_VERSION = 1

#: register codes pack ``(id, class, virtual)`` into one non-negative
#: int64: 54 bits of id, 8 bits of class index, 1 bit of virtuality
_MAX_REG_ID = (1 << 54) - 1
_MAX_CLASSES = 1 << 8

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1

#: imm column kinds
_IMM_NONE = 0
_IMM_INT = 1
_IMM_PAIR = 2    # setlr's short (value, delay) payload
_IMM_TRIPLE = 3  # setlr's full (value, delay, cls) payload; cls interned
_IMM_INTS = 4    # length-prefixed int tuple (permi's permutation)

#: width-adaptive storage: the narrowest signed array typecode per bound.
#: Resolved by itemsize at import so platform typecode sizes cannot bite.
_WIDTH_CODES: Tuple[Tuple[int, str], ...] = tuple(sorted(
    {array(tc).itemsize: tc for tc in ("q", "l", "i", "h", "b")}.items()))


class WireError(ValueError):
    """A function (or payload) outside the wire format's model — an
    immediate that is not a small int or ``setlr`` pair, a register id
    past 2^54, a truncated or foreign buffer.  Callers that can fall
    back to pickling should treat this as "ship it the slow way"."""


# ----------------------------------------------------------------------
# encoding
# ----------------------------------------------------------------------


def _pack_section(values: Sequence[int]) -> bytes:
    """One column: u8 typecode + u32 element count + packed elements."""
    lo = min(values, default=0)
    hi = max(values, default=0)
    if lo < _I64_MIN or hi > _I64_MAX:
        raise WireError("column value does not fit the wire's int64")
    for itemsize, typecode in _WIDTH_CODES:
        bound = 1 << (8 * itemsize - 1)
        if -bound <= lo and hi < bound:
            break
    return struct.pack("<cI", typecode.encode(), len(values)) + \
        array(typecode, values).tobytes()


def to_wire(fn: Function) -> bytes:
    """Serialize ``fn`` to one flat, cheaply-decodable payload."""
    strings: List[str] = [fn.name]
    string_index: Dict[str, int] = {fn.name: 0}

    def intern(s: str) -> int:
        idx = string_index.get(s)
        if idx is None:
            idx = len(strings)
            strings.append(s)
            string_index[s] = idx
        return idx

    reg_memo: Dict[Reg, int] = {}

    def reg_code(reg: Reg) -> int:
        code = reg_memo.get(reg)
        if code is None:
            if reg.id > _MAX_REG_ID:
                raise WireError(f"register id {reg.id} exceeds the "
                                "wire limit")
            cls_idx = intern(reg.cls)
            if cls_idx >= _MAX_CLASSES:
                raise WireError("more than 256 distinct register classes")
            code = (reg.id << 9) | (cls_idx << 1) | (1 if reg.virtual else 0)
            reg_memo[reg] = code
        return code

    block_names: List[int] = []
    block_lens: List[int] = []
    ops: List[int] = []
    dsts: List[int] = []
    n_srcs: List[int] = []
    srcs: List[int] = []
    imm_kinds: List[int] = []
    imm_values: List[int] = []
    labels: List[int] = []
    n_cuses: List[int] = []
    cuses: List[int] = []
    n_cdefs: List[int] = []
    cdefs: List[int] = []
    uids: List[int] = []

    params = [reg_code(p) for p in fn.params]

    op_code_get = OP_CODE.get
    for block in fn.blocks:
        block_names.append(intern(block.name))
        block_lens.append(len(block.instrs))
        for instr in block.instrs:
            code = op_code_get(instr.op)
            if code is None:  # pragma: no cover - OPCODES gates this
                raise WireError(f"unknown opcode {instr.op!r}")
            ops.append(code)
            dst = instr.dst
            dsts.append(reg_code(dst) if dst is not None else -1)
            instr_srcs = instr.srcs
            n_srcs.append(len(instr_srcs))
            srcs += [reg_code(r) for r in instr_srcs]
            imm = instr.imm
            if imm is None:
                imm_kinds.append(_IMM_NONE)
            elif type(imm) is int:
                imm_kinds.append(_IMM_INT)
                imm_values.append(imm)
            elif type(imm) is tuple and len(imm) == 2 \
                    and all(type(v) is int for v in imm):
                imm_kinds.append(_IMM_PAIR)
                imm_values.extend(imm)
            elif type(imm) is tuple and len(imm) == 3 \
                    and type(imm[0]) is int and type(imm[1]) is int \
                    and type(imm[2]) is str:
                imm_kinds.append(_IMM_TRIPLE)
                imm_values.extend((imm[0], imm[1], intern(imm[2])))
            elif type(imm) is tuple and all(type(v) is int for v in imm):
                imm_kinds.append(_IMM_INTS)
                imm_values.append(len(imm))
                imm_values.extend(imm)
            else:
                raise WireError(
                    f"immediate {imm!r} is outside the wire model "
                    "(int, (int, int), (int, int, str) or None)")
            label = instr.label
            labels.append(intern(label) if label is not None else -1)
            call_uses = instr.call_uses
            call_defs = instr.call_defs
            n_cuses.append(len(call_uses))
            if call_uses:
                cuses += [reg_code(r) for r in call_uses]
            n_cdefs.append(len(call_defs))
            if call_defs:
                cdefs += [reg_code(r) for r in call_defs]
            uids.append(instr.uid)

    blob = bytearray()
    blob += _MAGIC
    blob += struct.pack("<HH", _VERSION, 0)

    string_bytes = bytearray()
    for s in strings:
        data = s.encode("utf-8")
        string_bytes += struct.pack("<I", len(data))
        string_bytes += data
    blob += struct.pack("<I", len(strings))
    blob += string_bytes

    for section in (params, block_names, block_lens, ops, dsts, n_srcs,
                    srcs, imm_kinds, imm_values, labels, n_cuses, cuses,
                    n_cdefs, cdefs, uids):
        blob += _pack_section(section)
    return bytes(blob)


# ----------------------------------------------------------------------
# decoding
# ----------------------------------------------------------------------


class _Reader:
    def __init__(self, data: bytes) -> None:
        self.data = data
        self.off = 0

    def take(self, n: int) -> bytes:
        end = self.off + n
        if end > len(self.data):
            raise WireError("truncated wire payload")
        chunk = self.data[self.off:end]
        self.off = end
        return chunk

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def section(self) -> List[int]:
        typecode, count = struct.unpack("<cI", self.take(5))
        if typecode not in (b"b", b"h", b"i", b"l", b"q"):
            raise WireError(f"unknown wire column typecode {typecode!r}")
        out = array(typecode.decode())
        out.frombytes(self.take(count * out.itemsize))
        return out.tolist()


def _make_instr(op: str, dst, srcs, imm, label, call_uses, call_defs,
                uid: int) -> Instr:
    """Construct a validated ``Instr`` without dataclass ``__init__``
    overhead — the checks of ``Instr.__post_init__`` are replicated here
    against the decoded fields (a corrupt payload must still surface)."""
    info = OPCODES.get(op)
    if info is None:
        raise WireError(f"unknown opcode {op!r}")
    if op != "call" and len(srcs) != info.n_src:
        raise WireError(f"{op} expects {info.n_src} sources, "
                        f"got {len(srcs)}")
    if info.has_dst and dst is None:
        raise WireError(f"{op} requires a destination register")
    if not info.has_dst and dst is not None:
        raise WireError(f"{op} takes no destination register")
    instr = Instr.__new__(Instr)
    instr.op = op
    instr.dst = dst
    instr.srcs = srcs
    instr.imm = imm
    instr.label = label
    instr.call_uses = call_uses
    instr.call_defs = call_defs
    instr.uid = uid
    return instr


def from_wire(data: bytes, preserve_uids: bool = False) -> Function:
    """Decode a :func:`to_wire` payload back into a :class:`Function`.

    Decoded instructions get fresh local uids unless ``preserve_uids``
    is set (see the module docstring for why fresh is the default).
    """
    r = _Reader(data)
    if r.take(4) != _MAGIC:
        raise WireError("not a wire payload (bad magic)")
    version, _pad = struct.unpack("<HH", r.take(4))
    if version != _VERSION:
        raise WireError(f"wire version {version} != {_VERSION}")

    strings: List[str] = []
    try:
        for _ in range(r.u32()):
            strings.append(r.take(r.u32()).decode("utf-8"))
    except UnicodeDecodeError:
        raise WireError("corrupt wire string table") from None
    if not strings:
        raise WireError("wire payload has no function name")

    params = r.section()
    block_names = r.section()
    block_lens = r.section()
    ops = r.section()
    dsts = r.section()
    n_srcs = r.section()
    srcs = r.section()
    imm_kinds = r.section()
    imm_values = r.section()
    labels = r.section()
    n_cuses = r.section()
    cuses = r.section()
    n_cdefs = r.section()
    cdefs = r.section()
    uids = r.section()
    if r.off != len(r.data):
        raise WireError("trailing bytes after the last wire section")
    if sum(block_lens) != len(ops) or not (
            len(ops) == len(dsts) == len(n_srcs) == len(imm_kinds)
            == len(labels) == len(n_cuses) == len(n_cdefs) == len(uids)):
        raise WireError("inconsistent wire column lengths")

    n_classes = len(strings)
    reg_memo: Dict[int, Reg] = {}

    def decode_reg(code: int) -> Reg:
        reg = reg_memo.get(code)
        if reg is None:
            cls_idx = (code >> 1) & 0xFF
            if code < 0 or cls_idx >= n_classes:
                raise WireError(f"malformed register code {code}")
            reg = Reg(code >> 9, virtual=bool(code & 1),
                      cls=strings[cls_idx])
            reg_memo[code] = reg
        return reg

    def string_at(idx: int, what: str) -> str:
        if not 0 <= idx < len(strings):
            raise WireError(f"{what} string index {idx} out of range")
        return strings[idx]

    src_off = cuse_off = cdef_off = imm_off = 0
    index = 0
    n_ops = len(OP_NAMES)
    blocks: List[BasicBlock] = []
    try:
        for b in range(len(block_names)):
            instrs: List[Instr] = []
            append_instr = instrs.append
            for _ in range(block_lens[b]):
                op_code = ops[index]
                if not 0 <= op_code < n_ops:
                    raise WireError(f"opcode code {op_code} out of range")
                kind = imm_kinds[index]
                if kind == _IMM_NONE:
                    imm: object = None
                elif kind == _IMM_INT:
                    imm = imm_values[imm_off]
                    imm_off += 1
                elif kind == _IMM_PAIR:
                    imm = (imm_values[imm_off], imm_values[imm_off + 1])
                    imm_off += 2
                elif kind == _IMM_TRIPLE:
                    imm = (imm_values[imm_off], imm_values[imm_off + 1],
                           string_at(imm_values[imm_off + 2],
                                     "setlr class"))
                    imm_off += 3
                elif kind == _IMM_INTS:
                    count = imm_values[imm_off]
                    imm_off += 1
                    imm = tuple(imm_values[imm_off:imm_off + count])
                    imm_off += count
                else:
                    raise WireError(f"unknown immediate kind {kind}")
                dst_code = dsts[index]
                label_idx = labels[index]
                ns, nu, nd = n_srcs[index], n_cuses[index], n_cdefs[index]
                append_instr(_make_instr(
                    OP_NAMES[op_code],
                    decode_reg(dst_code) if dst_code >= 0 else None,
                    tuple([decode_reg(c)
                           for c in srcs[src_off:src_off + ns]]),
                    imm,
                    (string_at(label_idx, "label")
                     if label_idx >= 0 else None),
                    tuple([decode_reg(c)
                           for c in cuses[cuse_off:cuse_off + nu]])
                    if nu else (),
                    tuple([decode_reg(c)
                           for c in cdefs[cdef_off:cdef_off + nd]])
                    if nd else (),
                    uids[index] if preserve_uids else _next_uid(),
                ))
                src_off += ns
                cuse_off += nu
                cdef_off += nd
                index += 1
            blocks.append(BasicBlock(string_at(block_names[b],
                                               "block name"), instrs))
    except IndexError:
        raise WireError("inconsistent wire column lengths") from None
    try:
        return Function(strings[0], blocks,
                        tuple(decode_reg(c) for c in params))
    except ValueError as exc:
        raise WireError(f"wire payload decodes to an invalid function: "
                        f"{exc}") from None


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------


def functions_structurally_equal(a: Function, b: Function) -> bool:
    """Whether two functions are identical up to instruction uids —
    the equality ``from_wire(to_wire(f)) == f`` promises."""
    if a.name != b.name or a.params != b.params or \
            len(a.blocks) != len(b.blocks):
        return False
    for ba, bb in zip(a.blocks, b.blocks):
        if ba.name != bb.name or len(ba.instrs) != len(bb.instrs):
            return False
        for ia, ib in zip(ba.instrs, bb.instrs):
            if (ia.op, ia.dst, ia.srcs, ia.imm, ia.label, ia.call_uses,
                    ia.call_defs) != (ib.op, ib.dst, ib.srcs, ib.imm,
                                      ib.label, ib.call_uses, ib.call_defs):
                return False
    return True


def wire_stats(fn: Function) -> Dict[str, int]:
    """Payload-size comparison for one function: wire vs pickle bytes.
    Used by the serialization micro-benchmark (BENCH_remap's ``wire``
    section) to track the codec's advantage over object-graph pickling."""
    import pickle

    wire = to_wire(fn)
    pickled = pickle.dumps(fn, protocol=pickle.HIGHEST_PROTOCOL)
    return {
        "instructions": fn.num_instructions(),
        "wire_bytes": len(wire),
        "pickle_bytes": len(pickled),
    }
