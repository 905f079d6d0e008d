"""Struct-of-arrays view of a :class:`~repro.ir.function.Function`.

The analysis layer historically walked per-instruction Python objects:
every liveness fix-point, interference edge and adjacency pair paid
attribute lookups, ``Reg`` hashing and small-set churn per instruction.
This module derives, once per function, the columnar view those analyses
actually need — the same design move the simulation layer made with
:mod:`repro.ir.trace` (per-block pre-decode, flat numpy columns) and the
worker fleet made with :mod:`repro.ir.wire` (string table + flat
sections).  regalloc2's discipline is the model: derive strict flat
invariants once, then keep every downstream pass a linear scan over
arrays.

Layout (arena-style — one flat array per property, index ranges instead
of object references):

* a **string table** interning the function name, block names and
  register class names exactly the way :mod:`repro.ir.wire` interns its
  payload strings (first entry = function name);
* a **register table** — every distinct :class:`Reg` of the function
  (parameters first, then in order of appearance) mapped to a dense
  local index; ``reg_cls`` gives each register's class as a string-table
  index, so class filtering is integer comparison instead of attribute
  access;
* **per-block columns** — ``block_start``/``block_len`` instruction
  ranges in layout order, plus the CFG as CSR successor/predecessor
  arrays (built from :meth:`Function.cfg`, preserving its edge order)
  and the reverse postorder from :func:`repro.analysis.dataflow.
  reverse_postorder`;
* **per-instruction columns** — opcode code (the shared
  :data:`repro.ir.trace.OP_CODE` numbering), owning block id, ``uid``,
  and CSR def/use/access-field register lists.

``defs``/``uses`` follow :meth:`Instr.defs`/:meth:`Instr.uses` (calls
contribute their explicit effect lists); ``fields`` follows
:meth:`Instr.reg_fields` (sources then destination — the paper's default
access order; ``call`` side-effect registers are not encoded fields), and
the other access orders are derived from it on demand.

Views are immutable and memoized on the analysis cache's structural
fingerprint (:func:`repro.analysis.cache.fingerprint_function`), so the
batched analyses (:mod:`repro.analysis.batched`), repeated pipeline
stages and corpus sweeps share one derivation per structural function.
Columns are numpy arrays.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.ir.function import Function
from repro.ir.instr import ALU_REG_OPS, Instr, Reg
from repro.ir.trace import OP_CODE

__all__ = ["ColumnarFunction", "columnar_view"]

# opcode -> is-two-address-collapsible ALU form, as a dense lookup row
# (indexing a bool table is far cheaper than ``np.isin`` per function)
_ALU_MASK = np.zeros(max(OP_CODE.values()) + 1, dtype=bool)
_ALU_MASK[[OP_CODE[o] for o in ALU_REG_OPS]] = True


class ColumnarFunction:
    """Read-only flat-column view of one function.

    Attributes (columns are ``np.ndarray``):

    * ``fn`` — the source function (the view keeps it alive; analysis
      results reference its ``Reg`` objects and block names).
    * ``strings`` / ``block_names`` — interned names; ``block_names[b]``
      is block ``b``'s name in layout order.
    * ``regs`` / ``reg_index`` — dense register table and its inverse.
    * ``reg_cls`` — per-register class code (string-table index).
    * ``block_start`` / ``block_len`` — per-block instruction ranges.
    * ``succ_off``/``succ`` and ``pred_off``/``pred`` — CFG as CSR over
      block ids, edge order identical to :meth:`Function.cfg`.
    * ``rpo`` — block ids in reverse postorder (dataflow iteration
      order); ``postorder_rank[b]`` is ``b``'s position in postorder.
    * ``op`` / ``block_of_instr`` / ``uid`` — per-instruction columns.
    * ``def_off``/``def_reg``, ``use_off``/``use_reg`` — CSR register
      lists per instruction (local indices into ``regs``).
    * ``field_off``/``field_reg`` — CSR encoded register fields in
      ``src_first`` order; ``has_dst`` marks instructions whose last
      field is the destination, ``two_address`` those the THUMB-style
      order collapses.
    * ``is_move`` / ``move_src`` / ``move_dst`` — move columns
      (``move_*`` are -1 for non-moves).
    """

    __slots__ = (
        "fn", "strings", "block_names", "regs", "reg_index",
        "reg_cls", "n_blocks", "n_instrs", "block_start", "block_len",
        "succ_off", "succ", "pred_off", "pred",
        "op", "block_of_instr", "uid", "def_off", "def_reg", "def_cnt",
        "use_off", "use_reg", "field_off", "field_reg", "has_dst",
        "two_address", "is_move", "move_src", "move_dst",
        "_field_orders", "_cls_nodes", "_cls_seeds", "_rpo", "_reg_sets",
        "_byte_sets", "_move_canon", "_use_cnt", "_succ_cnt", "_use_defs",
    )

    def __init__(self, fn: Function) -> None:
        self.fn = fn

        strings: List[str] = [fn.name]
        string_index: Dict[str, int] = {fn.name: 0}

        def intern(s: str) -> int:
            idx = string_index.get(s)
            if idx is None:
                idx = len(strings)
                strings.append(s)
                string_index[s] = idx
            return idx

        regs: List[Reg] = []
        reg_index: Dict[Reg, int] = {}
        reg_cls: List[int] = []

        def reg_id(r: Reg) -> int:
            idx = reg_index.get(r)
            if idx is None:
                idx = len(regs)
                regs.append(r)
                reg_index[r] = idx
                reg_cls.append(intern(r.cls))
            return idx

        for p in fn.params:
            reg_id(p)

        block_len: List[int] = []
        op: List[int] = []
        uid: List[int] = []
        def_off: List[int] = [0]
        def_reg: List[int] = []
        use_off: List[int] = [0]
        use_reg: List[int] = []
        field_off: List[int] = [0]
        field_reg: List[int] = []
        has_dst: List[bool] = []

        op_append, uid_append = op.append, uid.append
        doff_append, uoff_append = def_off.append, use_off.append
        foff_append, hd_append = field_off.append, has_dst.append
        for block in fn.blocks:
            intern(block.name)
            block_len.append(len(block.instrs))
            for instr in block.instrs:
                opname = instr.op
                srcs = instr.srcs
                dst = instr.dst
                op_append(OP_CODE[opname])
                uid_append(instr.uid)
                # inline Instr.defs()/uses(): only ``call`` and ``permi``
                # deviate from the (dst,) / srcs defaults
                sids = [reg_id(r) for r in srcs]
                if opname == "call" or opname == "permi":
                    for r in instr.defs():
                        def_reg.append(reg_id(r))
                    use_reg += sids
                    for r in (instr.call_uses if opname == "call"
                              else instr.uses()):
                        use_reg.append(reg_id(r))
                else:
                    if dst is not None:
                        def_reg.append(reg_id(dst))
                    use_reg += sids
                doff_append(len(def_reg))
                uoff_append(len(use_reg))
                field_reg += sids
                if dst is None:
                    hd_append(False)
                else:
                    field_reg.append(reg_id(dst))
                    hd_append(True)
                foff_append(len(field_reg))
        index = len(op)

        succs, preds = fn.cfg()
        block_id = {b.name: i for i, b in enumerate(fn.blocks)}
        succ_off: List[int] = [0]
        succ: List[int] = []
        pred_off: List[int] = [0]
        pred: List[int] = []
        for b in fn.blocks:
            succ.extend(block_id[s] for s in succs[b.name])
            succ_off.append(len(succ))
            pred.extend(block_id[p] for p in preds[b.name])
            pred_off.append(len(pred))

        self.strings = strings
        self.block_names = [b.name for b in fn.blocks]
        self.regs = regs
        self.reg_index = reg_index
        self.n_blocks = len(fn.blocks)
        self.n_instrs = index
        self._field_orders: Dict[Tuple[str, str], object] = {}
        self._cls_nodes: Dict[str, List[Reg]] = {}
        self._cls_seeds: Dict[str, dict] = {}
        self._rpo = None
        self._reg_sets = None
        self._byte_sets: Dict[int, frozenset] = {}
        self._move_canon = None
        self._use_cnt = None
        self._succ_cnt = None
        # (use, defs) block-name dicts of frozensets — syntactic
        # per-block summaries, filled by the first liveness kernel
        # run over this view (treat as immutable, like reg_sets)
        self._use_defs = None

        mov_code = OP_CODE["mov"]
        i64 = np.int64
        self.reg_cls = np.asarray(reg_cls, dtype=i64)
        blen = np.asarray(block_len, dtype=i64)
        self.block_len = blen
        bstart = np.zeros(len(block_len), dtype=i64)
        np.cumsum(blen[:-1], out=bstart[1:])
        self.block_start = bstart
        self.succ_off = np.asarray(succ_off, dtype=i64)
        self.succ = np.asarray(succ, dtype=i64)
        self.pred_off = np.asarray(pred_off, dtype=i64)
        self.pred = np.asarray(pred, dtype=i64)
        op_arr = np.asarray(op, dtype=i64)
        self.op = op_arr
        self.block_of_instr = np.repeat(np.arange(len(block_len)), blen)
        self.uid = np.asarray(uid, dtype=i64)
        d_off = np.asarray(def_off, dtype=i64)
        self.def_off = d_off
        self.def_reg = np.asarray(def_reg, dtype=i64)
        self.def_cnt = np.diff(d_off)
        u_off = np.asarray(use_off, dtype=i64)
        self.use_off = u_off
        self.use_reg = np.asarray(use_reg, dtype=i64)
        f_off = np.asarray(field_off, dtype=i64)
        self.field_off = f_off
        f_reg = np.asarray(field_reg, dtype=i64)
        self.field_reg = f_reg
        hd = np.asarray(has_dst, dtype=bool)
        self.has_dst = hd
        # vectorized derivations replacing per-instruction Python work:
        # an instruction is two-address when it is an ALU op whose last
        # field (the destination) names the same register as its first
        # (``dst == srcs[0]`` — register ids are injective); a ``mov``
        # always has exactly one def and one use, so its endpoints sit
        # at the start of its CSR rows.
        if index and len(f_reg):
            self.two_address = (hd & _ALU_MASK[op_arr]
                                & (f_reg[(f_off[1:] - 1).clip(min=0)]
                                   == f_reg[f_off[:-1].clip(
                                       max=len(f_reg) - 1)]))
        else:
            self.two_address = np.zeros(index, dtype=bool)
        mv = op_arr == mov_code
        self.is_move = mv
        move_dst = np.full(index, -1, dtype=i64)
        move_src = np.full(index, -1, dtype=i64)
        rows = np.nonzero(mv)[0]
        if len(rows):
            move_dst[rows] = self.def_reg[d_off[rows]]
            move_src[rows] = self.use_reg[u_off[rows]]
        self.move_dst = move_dst
        self.move_src = move_src

    # ------------------------------------------------------------------
    # derived columns
    # ------------------------------------------------------------------

    @property
    def n_regs(self) -> int:
        return len(self.regs)

    @property
    def rpo(self):
        """Block ids in reverse postorder (dataflow iteration order),
        derived lazily — the batched analyses no longer need it."""
        if self._rpo is None:
            from repro.analysis.dataflow import reverse_postorder

            block_id = {b.name: i for i, b in enumerate(self.fn.blocks)}
            rpo = [block_id[name] for name in reverse_postorder(self.fn)]
            self._rpo = np.asarray(rpo, dtype=np.int64)
        return self._rpo

    @property
    def postorder_rank(self):
        """``postorder_rank[b]``: position of ``b`` in postorder — blocks
        late in reverse postorder have low rank, the order a backward
        sweep should visit them in."""
        rpo = self.rpo
        n = len(rpo)
        rank = np.zeros(n, dtype=np.int64)
        rank[rpo] = np.arange(n - 1, -1, -1, dtype=np.int64)
        return rank

    @property
    def use_cnt(self):
        """Uses per instruction (``diff`` of :attr:`use_off`), cached."""
        if self._use_cnt is None:
            self._use_cnt = np.diff(self.use_off)
        return self._use_cnt

    @property
    def succ_cnt(self):
        """Successors per block (``diff`` of :attr:`succ_off`), cached."""
        if self._succ_cnt is None:
            self._succ_cnt = np.diff(self.succ_off)
        return self._succ_cnt

    @property
    def reg_sets(self) -> List[frozenset]:
        """``reg_sets[i]`` is ``frozenset({regs[i]})``, built lazily.

        The bitset decoders union these singletons instead of rebuilding
        sets member by member: ``frozenset.union`` merges entries on
        their stored hashes, so each register pays its (Python-level)
        ``__hash__`` exactly once per view instead of once per decoded
        set.
        """
        sets = self._reg_sets
        if sets is None:
            sets = [frozenset((r,)) for r in self.regs]
            self._reg_sets = sets
        return sets

    def byte_set(self, key: int) -> frozenset:
        """Frozenset of the registers named by one decoded bitset byte.

        ``key`` is ``word_column * 256 + byte_value``; bit ``b`` of the
        byte names local register ``word_column * 8 + b``.  Memoized on
        the view — byte patterns recur across liveness rows,
        interference neighbourhoods and repeated analysis runs, and each
        is assembled from the :attr:`reg_sets` singletons exactly once.
        """
        cached = self._byte_sets.get(key)
        if cached is None:
            table = self.reg_sets
            base = (key >> 8) * 8
            val = key & 255
            bits = [base + b for b in range(8) if val >> b & 1]
            if len(bits) == 1:
                cached = table[bits[0]]
            else:
                cached = frozenset().union(*map(table.__getitem__, bits))
            self._byte_sets[key] = cached
        return cached

    def cls_code(self, cls: str) -> Optional[int]:
        """String-table index of class ``cls`` (None if the function
        never mentions it — no register can match)."""
        try:
            return self.strings.index(cls)
        except ValueError:
            return None

    def nodes_of_cls(self, cls: str) -> List[Reg]:
        """Registers of class ``cls`` in :meth:`Function.registers`
        iteration order, memoized on the view.

        ``registers()`` returns a set, so its iteration order is an
        artifact of hash layout — but a deterministic one within a
        process, and the reference interference builder seeds its node
        dict by walking exactly that set.  The batched kernel must
        replicate the dict order bit for bit, so it filters the same
        iteration rather than using the view's own register table.
        """
        return self._cls_nodes_ids(cls)[0]

    def node_ids_of_cls(self, cls: str) -> List[int]:
        """Local register-table ids of :meth:`nodes_of_cls`, aligned."""
        return self._cls_nodes_ids(cls)[1]

    def cls_seed(self, cls: str, empty) -> dict:
        """A dict mapping every :meth:`nodes_of_cls` register to
        ``empty``, memoized on the view.

        ``dict(seed)`` clones a dict reusing its stored key hashes, so a
        consumer that seeds a per-class node table for every analysis
        run (the interference kernel) hashes each register once per
        view instead of once per run.  Callers must treat
        the shared ``empty`` value as immutable.
        """
        seed = self._cls_seeds.get(cls)
        if seed is None or next(iter(seed.values()), empty) is not empty:
            seed = dict.fromkeys(self.nodes_of_cls(cls), empty)
            self._cls_seeds[cls] = seed
        return seed

    def _cls_nodes_ids(self, cls: str):
        pair = self._cls_nodes.get(cls)
        if pair is None:
            nodes = [r for r in self.fn.registers() if r.cls == cls]
            rix = self.reg_index
            pair = (nodes, [rix[r] for r in nodes])
            self._cls_nodes[cls] = pair
        return pair

    def move_canon(self):
        """Per-``mov`` canonical register pair, memoized on the view.

        Returns ``(lo, hi)`` arrays aligned with :attr:`is_move` rows
        (``np.nonzero(is_move)`` order): local ids of the move's
        endpoints ordered by ``Reg`` comparison — the key order
        ``InterferenceGraph.add_move`` uses — with ``(-1, -1)`` for
        self-moves, which the reference drops.
        """
        canon = self._move_canon
        if canon is None:
            regs = self.regs
            lo: List[int] = []
            hi: List[int] = []
            for i in np.nonzero(self.is_move)[0].tolist():
                d = int(self.move_dst[i])
                s = int(self.move_src[i])
                if d == s:
                    lo.append(-1)
                    hi.append(-1)
                elif regs[d] < regs[s]:
                    lo.append(d)
                    hi.append(s)
                else:
                    lo.append(s)
                    hi.append(d)
            canon = (np.asarray(lo, dtype=np.int64),
                     np.asarray(hi, dtype=np.int64))
            self._move_canon = canon
        return canon

    def access_fields(self, order: str) -> Tuple[object, object]:
        """``(field_flat, instr_of_field)`` for one access order.

        ``field_flat`` lists local register indices of every encoded
        field in layout order under ``order`` (all classes — callers
        mask by ``reg_cls``); ``instr_of_field`` gives each field's
        instruction.  Derived from the stored ``src_first`` CSR:
        ``dst_first`` hoists the destination field to the front of its
        instruction, ``two_address`` drops the destination field of
        collapsed THUMB forms (its register equals the first source, so
        the remaining fields are exactly ``dst, src2``).  Results are
        memoized on the view.
        """
        cached = self._field_orders.get((order, ""))
        if cached is not None:
            return cached
        counts = np.diff(self.field_off)
        instr_of_field = np.repeat(np.arange(self.n_instrs), counts)
        flat = self.field_reg
        if order == "src_first":
            result = (flat, instr_of_field)
        elif order == "dst_first":
            within = np.arange(len(flat)) - self.field_off[instr_of_field]
            is_dst = self.has_dst[instr_of_field] & \
                (within == counts[instr_of_field] - 1)
            key = within.copy()
            key[is_dst] = -1
            perm = np.argsort(instr_of_field * (int(counts.max(initial=0))
                                                + 2) + key, kind="stable")
            result = (flat[perm], instr_of_field)
        elif order == "two_address":
            within = np.arange(len(flat)) - self.field_off[instr_of_field]
            drop = self.two_address[instr_of_field] & \
                (within == counts[instr_of_field] - 1)
            keep = ~drop
            result = (flat[keep], instr_of_field[keep])
        else:
            raise ValueError(f"unknown access order {order!r}")
        self._field_orders[(order, "")] = result
        return result


def columnar_view(fn: Function, fp: Optional[Tuple] = None
                  ) -> ColumnarFunction:
    """The memoized :class:`ColumnarFunction` of ``fn``.

    Keyed on the structural fingerprint like every other analysis —
    pipeline stages and corpus sweeps re-derive the same function's view
    at most once per process.  Callers that already hold the
    fingerprint (the analysis dispatchers compute it for their own memo
    keys) pass it as ``fp`` to avoid walking the function again.  The
    view is immutable; treat every column as read-only.
    """
    from repro.analysis.cache import fingerprint_function, memoize_analysis

    key = ("columnar", fingerprint_function(fn) if fp is None else fp)
    return memoize_analysis(key, lambda: ColumnarFunction(fn))
