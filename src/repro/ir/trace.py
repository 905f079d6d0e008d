"""Compact columnar execution traces.

The object trace (:class:`repro.ir.interp.TraceEntry` per dynamic
instruction) is convenient but expensive: a two-million-step run allocates
two million dataclass instances that the timing model then walks one Python
iteration at a time.  Only the reference interpreter engine records it, as
a test oracle.  This module provides the columnar form the simulation
layer runs on: four parallel arrays — ``static_index``, opcode
code, ``mem_addr``, block id — assembled per run from two much smaller
recordings:

* the **block path**: the sequence of basic blocks executed.  Control
  flow only ever leaves a block through its final instruction, so every
  dynamic block execution replays the block's static instruction prefix
  verbatim; per-block columns are pre-decoded once and concatenated along
  the path with array ops.
* the **dynamic memory addresses**: effective addresses of ``ld``/``st``,
  the only per-step values that cannot be read off the static code
  (spill-slot addresses are synthesised from the static slot number).

The same two recordings make traces *derivable*: a transformation that
only renames registers and inserts ``setlr`` (differential remapping)
preserves both the block path and the data addresses, so the transformed
function's trace is assembled from its own pre-decode plus the recorded
path — no re-execution (see :mod:`repro.machine.reuse`).

Columns are int64 numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.ir.function import Function
from repro.ir.instr import BRANCH_OPS, Instr, OPCODES

__all__ = [
    "ColumnarTrace",
    "FunctionCodec",
    "derive_trace",
    "OP_NAMES",
    "OP_CODE",
    "NO_ADDR",
]

#: stable opcode numbering shared by every columnar trace
OP_NAMES: Tuple[str, ...] = tuple(sorted(OPCODES))
OP_CODE: Dict[str, int] = {name: i for i, name in enumerate(OP_NAMES)}

#: ``mem_addr`` sentinel for "no data access".  Real addresses are 32-bit
#: two's complement and spill-slot addresses live at ``1 << 24`` + slot, so
#: a value far outside both ranges cannot collide.
NO_ADDR = 1 << 40
#: pre-decode marker for ``ld``/``st`` positions whose address is dynamic
_DYN_ADDR = -(1 << 40)

_SPILL_REGION_BASE = 1 << 24  # mirrors repro.ir.interp

# real-memory opcodes whose addresses must be recorded at execution time
_DYNAMIC_MEM_OPS = frozenset({"ld", "st"})


class FunctionCodec:
    """Per-function pre-decode for columnar tracing.

    For each basic block, the *executed prefix* — instructions up to and
    including the first control-flow op; anything after a mid-block branch
    is unreachable because blocks are always entered at their head — is
    turned into static columns once.  ``assemble`` then builds a full
    dynamic trace from a block path and the recorded dynamic addresses.
    """

    def __init__(self, fn: Function) -> None:
        self.fn = fn
        self.block_names: Tuple[str, ...] = tuple(b.name for b in fn.blocks)

        self.prefixes: List[List[Instr]] = []
        self.prefix_static: List[List[int]] = []
        self.prefix_ops: List[Tuple[str, ...]] = []

        g_static: List[int] = []
        g_op: List[int] = []
        g_mem: List[int] = []
        starts: List[int] = []
        lens: List[int] = []
        sig_rows = []

        index = 0
        for block in fn.blocks:
            prefix: List[Instr] = []
            static: List[int] = []
            for instr in block.instrs:
                prefix.append(instr)
                static.append(index + len(prefix) - 1)
                if instr.op in BRANCH_OPS:
                    break
            index += len(block.instrs)  # static numbering counts dead tails

            starts.append(len(g_static))
            lens.append(len(prefix))
            mem_sig: List[str] = []
            for instr, si in zip(prefix, static):
                g_static.append(si)
                g_op.append(OP_CODE[instr.op])
                if instr.op in _DYNAMIC_MEM_OPS:
                    g_mem.append(_DYN_ADDR)
                    mem_sig.append(instr.op)
                elif instr.op in ("ldslot", "stslot"):
                    g_mem.append(_SPILL_REGION_BASE + int(instr.imm))
                else:
                    g_mem.append(NO_ADDR)
            term = prefix[-1] if prefix and prefix[-1].op in BRANCH_OPS else None
            sig_rows.append((
                block.name,
                term.op if term is not None else None,
                term.label if term is not None else None,
                tuple(mem_sig),
            ))
            self.prefixes.append(prefix)
            self.prefix_static.append(static)
            self.prefix_ops.append(tuple(i.op for i in prefix))

        #: structural identity that must match for a recorded block path
        #: (and its dynamic addresses) to be replayable on another function
        self.signature: Tuple = tuple(sig_rows)

        self._g_static = np.asarray(g_static, dtype=np.int64)
        self._g_op = np.asarray(g_op, dtype=np.int64)
        self._g_mem = np.asarray(g_mem, dtype=np.int64)
        self._starts = np.asarray(starts, dtype=np.int64)
        self._lens = np.asarray(lens, dtype=np.int64)

    def assemble(self, block_path: Sequence[int],
                 dyn_mem: Sequence[int]) -> "ColumnarTrace":
        """Concatenate per-block columns along ``block_path`` and splice the
        recorded ``ld``/``st`` addresses into the dynamic positions."""
        path = np.asarray(block_path, dtype=np.int64)
        dyn = np.asarray(dyn_mem, dtype=np.int64)
        if path.size == 0:
            empty = np.zeros(0, dtype=np.int64)
            return ColumnarTrace(empty, empty.copy(), empty.copy(),
                                 empty.copy(), path, dyn, self)
        lens = self._lens[path]
        total = int(lens.sum())
        ends = np.cumsum(lens)
        # index into the concatenated per-block columns: one arange shifted
        # per path element so every block contributes its own slice
        idx = np.arange(total, dtype=np.int64) + np.repeat(
            self._starts[path] - (ends - lens), lens
        )
        mem = self._g_mem[idx].copy()
        dmask = mem == _DYN_ADDR
        n_dyn = int(dmask.sum())
        if n_dyn != dyn.size:
            raise ValueError(
                f"{self.fn.name}: trace has {dyn.size} recorded data "
                f"addresses but the block path needs {n_dyn}"
            )
        mem[dmask] = dyn
        return ColumnarTrace(
            static_index=self._g_static[idx],
            op_code=self._g_op[idx],
            mem_addr=mem,
            block_id=np.repeat(path, lens),
            block_path=path,
            dyn_mem=dyn,
            source=self,
        )


@dataclass
class ColumnarTrace:
    """A dynamic instruction stream as parallel columns.

    ``static_index`` is each entry's position in layout order (the timing
    model's PC); ``op_code`` indexes :data:`OP_NAMES`; ``mem_addr`` is the
    effective word address of the data access or :data:`NO_ADDR`;
    ``block_id`` is the layout index of the owning basic block.
    ``block_path`` and ``dyn_mem`` are the compact recordings the columns
    were assembled from, kept so the trace can be re-derived for a
    register-renamed/``setlr``-inserted variant of the source function.
    """

    static_index: Sequence[int]
    op_code: Sequence[int]
    mem_addr: Sequence[int]
    block_id: Sequence[int]
    block_path: Sequence[int]
    dyn_mem: Sequence[int]
    source: FunctionCodec

    def __len__(self) -> int:
        return len(self.static_index)

    def counts(self) -> Dict[str, int]:
        """Dynamic opcode counts, computed in one pass over the column."""
        bins = np.bincount(self.op_code, minlength=len(OP_NAMES))
        return {OP_NAMES[code]: int(bins[code])
                for code in np.flatnonzero(bins)}


def derive_trace(base: ColumnarTrace, new_fn: Function) -> Optional[ColumnarTrace]:
    """Re-assemble ``base``'s recording against ``new_fn``'s pre-decode.

    Valid when ``new_fn`` differs from the recorded function only by
    register renaming and inserted ``setlr`` (and similar no-data-effect
    edits): the dynamic block path and the ``ld``/``st`` address stream are
    then invariant.  The structural guard — same blocks in the same order,
    same terminators and branch targets, and the same per-block ``ld``/``st``
    sequence — rejects anything that moved control flow or data accesses;
    returns ``None`` when the recording is not replayable.
    """
    codec = FunctionCodec(new_fn)
    base_sig = base.source.signature
    if len(codec.signature) != len(base_sig):
        return None
    for (name_a, term_a, label_a, mem_a), (name_b, term_b, label_b, mem_b) \
            in zip(base_sig, codec.signature):
        if (name_a, term_a, label_a, mem_a) != (name_b, term_b, label_b, mem_b):
            return None
    return codec.assemble(base.block_path, base.dyn_mem)
