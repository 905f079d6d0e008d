"""Corpus-batched, vectorized CFG analyses over the columnar IR view.

The object-walking analyses (:mod:`repro.analysis.liveness`,
:mod:`repro.analysis.interference`, :mod:`repro.analysis.adjacency`) pay
Python per instruction: attribute lookups, ``Reg`` hashing, small-set
churn.  This module re-implements all three on the flat columns of
:mod:`repro.ir.columnar` and — the actual point — runs them for a
*whole corpus at once*: every function's blocks are stacked into shared
bitset matrices, one fixed point analyses hundreds of functions
together, and interference/adjacency extraction is one numpy pass over
the concatenated columns.  Functions never share CFG edges or register
tables, so stacking is safe: the batched result is the product of the
per-function results, and the per-function overhead that dominates
micro-batches (numpy call dispatch, repeated fingerprints) is paid once
per corpus instead of once per function.

Liveness representation: one ``uint64`` bitset row per block (``W``
words, ``W = ceil(max_regs/64)`` over the batch), function-local dense
register numbering from the view's register table.  The fixed point is
whole-matrix Jacobi: each sweep ORs every function's ``live_in`` rows
across the stacked CFG edge list (one grouped ``reduceat`` — the
outgoing edges of a block are contiguous) and applies the
``use ∪ (out − def)`` transfer to all blocks at once, iterating to
stability (bounded by the block count).  May-liveness is monotone
increasing under OR, so iteration converges to the same least fixed
point the worklist solver in :mod:`repro.analysis.dataflow` computes.

Exactness is the contract: every result is *identical* to the reference
engines — the same frozensets, the same dict insertion orders, the same
floating-point accumulation order for move and adjacency weights
(per-key left-to-right, reproduced positionally rather than with
``reduceat``, whose pairwise summation would drift in the last ulp).
The equivalence is enforced on mibench, a 200-function fuzz corpus and
hypothesis-generated programs by ``tests/test_batched_analysis.py``,
and re-checked (with the speedup floor) by
``benchmarks/test_analysis_speed.py``.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.ir.columnar import ColumnarFunction, columnar_view
from repro.ir.function import Function

__all__ = [
    "batched_liveness",
    "liveness_one",
    "interference_one",
    "adjacency_one",
    "prewarm_corpus",
]


def _bases(sizes: List[int]) -> List[int]:
    base = [0] * len(sizes)
    for i in range(1, len(sizes)):
        base[i] = base[i - 1] + sizes[i - 1]
    return base


# bit positions set in each byte value, for bitset decoding
_BITS = [tuple(b for b in range(8) if v >> b & 1) for v in range(256)]

# the adjacency value shared by every edgeless interference node.  A
# module-level singleton (rather than one per kernel run) lets views
# memoize their per-class node seed dicts (:meth:`ColumnarFunction.
# cls_seed`) across runs.  Never mutated: memoized graphs are only read
# or deep-copied, and ``copy()`` rebuilds every set.
_EMPTY_NODE_SET: set = set()


def _intern_rows(words, fid_row):
    """Group equal ``(fid, bitset row)`` pairs.

    Returns ``(inverse, rep_idx)``: ``words[rep_idx]`` are the distinct
    rows and ``inverse[i]`` maps row ``i`` to its representative.  Done
    as chained 1D uniques (one per word column), compressing the running
    key after each column so it stays small — much faster than a
    lexicographic ``axis=0`` unique.
    """
    if not len(words):
        z = np.zeros(0, dtype=np.int64)
        return z, z
    key = fid_row
    rep_idx = None
    for c in range(words.shape[1]):
        _, wid = np.unique(words[:, c], return_inverse=True)
        _, rep_idx, key = np.unique(key * (int(wid.max()) + 1) + wid,
                                    return_index=True,
                                    return_inverse=True)
    return key.reshape(-1), rep_idx


def _decode_rows(uniq_words, ufid, views, frozen=True):
    """Decode distinct bitset rows into sets of ``Reg`` objects.

    Returns a list aligned with ``uniq_words``; ``ufid`` names each
    row's function (register bits are function-local).  Rows decompose
    into ``(function, byte column, byte value)`` keys; each distinct
    byte pattern becomes a frozenset once — unioned from the view's
    singleton :attr:`~repro.ir.columnar.ColumnarFunction.reg_sets`, so
    each register is hashed once per view — and row sets union the byte
    sets on stored hashes.  ``frozen=False`` yields
    mutable sets instead; rows sharing a pattern share one set object,
    so callers must treat the results as read-only until copied.
    """
    n_u, W = uniq_words.shape
    WB = 8 * W
    u64 = np.uint64
    bmat = ((uniq_words[:, :, None] >> (np.arange(8, dtype=u64)
                                        * np.uint64(8)))
            & np.uint64(0xFF)).reshape(n_u, WB).astype(np.int64)
    nzr, nzc = np.nonzero(bmat)
    bkeys = (ufid[nzr] * WB + nzc) * 256 + bmat[nzr, nzc]
    ukeys, inv2 = np.unique(bkeys, return_inverse=True)
    # inline the per-view byte-set cache: patterns are nonzero, so their
    # sets are never falsy and ``or`` can supply the build-on-miss path
    span = WB * 256
    tabs = [v._byte_sets for v in views]
    byte_sets = [tabs[k // span].get(k % span)
                 or views[k // span].byte_set(k % span)
                 for k in ukeys.tolist()]
    counts = np.bincount(nzr, minlength=n_u)
    starts = (np.cumsum(counts) - counts).tolist()
    counts = counts.tolist()
    inv2 = inv2.reshape(-1).tolist()
    bg = byte_sets.__getitem__
    if frozen:
        empty = frozenset()
        union = empty.union
        return [empty if c == 0 else
                byte_sets[inv2[s]] if c == 1 else
                union(*map(bg, inv2[s:s + c]))
                for s, c in zip(starts, counts)]
    mt_empty = set()
    return [mt_empty if c == 0 else
            set(byte_sets[inv2[s]]) if c == 1 else
            set().union(*map(bg, inv2[s:s + c]))
            for s, c in zip(starts, counts)]


def _cat(parts, dtype=np.int64):
    """Concatenation that tolerates empty part lists and skips the copy
    when only one part is non-empty."""
    parts = [p for p in parts if len(p)]
    if not parts:
        return np.zeros(0, dtype=dtype)
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts)


# ----------------------------------------------------------------------
# stacked bitset liveness
# ----------------------------------------------------------------------

def _liveness_kernel(views: Sequence[ColumnarFunction],
                     fps: Optional[Sequence[Tuple]] = None):
    """Fixed-point liveness for a stack of views in shared matrices.

    Returns ``(infos, instr_live_out_slices)`` aligned with ``views``.
    When ``fps`` (per-view structural fingerprints) is given, each
    function's per-instruction live-out bitsets are memoized under
    ``("livebits", fp)`` so the interference kernel can reuse them
    without re-running the fixed point.
    """
    from repro.analysis.cache import memoize_analysis
    from repro.analysis.liveness import LivenessInfo

    n_fns = len(views)
    if n_fns == 0:
        return [], []
    nb = [v.n_blocks for v in views]
    ni = [v.n_instrs for v in views]
    block_base = _bases(nb)
    instr_base = _bases(ni)
    B = block_base[-1] + nb[-1]
    I = instr_base[-1] + ni[-1]
    max_regs = max((v.n_regs for v in views), default=0)
    W = max(1, (max_regs + 63) // 64)
    u64, one = np.uint64, np.uint64(1)

    nb_arr = np.asarray(nb)
    ni_arr = np.asarray(ni)
    ib_arr = np.asarray(instr_base)
    bb_arr = np.asarray(block_base)

    # global columns: concatenate per-function columns once, then shift
    # ids by per-function bases with a single repeat — instruction and
    # block numbering become corpus-global, register bits stay
    # function-local (rows never mix functions)
    blen = _cat([v.block_len for v in views])
    bstart = _cat([v.block_start for v in views]) + np.repeat(ib_arr,
                                                              nb_arr)
    es = np.repeat(np.arange(B), _cat([v.succ_cnt for v in views]))
    ed = _cat([v.succ for v in views]) + np.repeat(
        bb_arr, np.asarray([len(v.succ) for v in views]))

    # per-instruction use/def bitsets
    U = np.zeros((I, W), dtype=u64)
    D = np.zeros((I, W), dtype=u64)
    for mat, cnts, regs in (
            (U, _cat([v.use_cnt for v in views]),
             _cat([v.use_reg for v in views])),
            (D, _cat([v.def_cnt for v in views]),
             _cat([v.def_reg for v in views]))):
        if len(regs):
            rows = np.repeat(np.arange(I), cnts)
            np.bitwise_or.at(
                mat, (rows, regs // 64),
                one << (regs % 64).astype(u64))

    # The instruction transfer ``f(x) = U | (x & ~D)`` is an affine
    # kill/gen function; such functions compose elementwise
    # (``(f∘h)(x) = x & (Kf&Kh) | ((Gh&Kf)|Gf)``), so the per-block
    # backward walk becomes a segmented suffix scan with log-doubling:
    # after the loop, ``(K[p], G[p])`` is the composition of instruction
    # ``p`` through the end of its block, in ``ceil(log2(max_len))``
    # full-matrix steps instead of one step per instruction.  ``K``
    # carries garbage bits above each function's register count (from
    # ``~D``); they are harmless because ``K`` is only ever ANDed
    # against clean rows.
    seg = _cat([v.block_of_instr for v in views]) + np.repeat(bb_arr,
                                                              ni_arr)
    max_len = int(blen.max()) if B else 0
    K = ~D
    G = U.copy()
    d = 1
    while d < max_len:
        valid = (seg[d:] == seg[:-d])[:, None]
        kf, gf = K[:-d], G[:-d]
        kc = kf & K[d:]
        gc = (G[d:] & kf) | gf
        K[:I - d] = np.where(valid, kc, kf)
        G[:I - d] = np.where(valid, gc, gf)
        d *= 2

    # block summaries fall out of the scan: the composition rooted at a
    # block's first instruction IS the block transfer, so its gen part
    # is the upward-exposed use set.
    use_blk = np.zeros((B, W), dtype=u64)
    nonempty = blen > 0
    use_blk[nonempty] = G[bstart[nonempty]]
    def_blk = np.zeros((B, W), dtype=u64)
    if I:
        np.bitwise_or.at(def_blk, seg, D)

    # Jacobi fixed point over whole matrices: every sweep propagates all
    # edges and applies all transfers in ~6 numpy calls, needing
    # longest-chain sweeps instead of loop-depth — fewer total
    # dispatches than rank-ordered Gauss-Seidel at any corpus shape.
    # May-liveness is monotone under OR, so ``live_out`` accumulates
    # without ever being cleared and the iteration reaches the least
    # fixed point; when ``live_in`` stops changing the last scatter saw
    # the same inputs, so ``live_out`` is stable too.
    live_in = use_blk.copy()
    live_out = np.zeros((B, W), dtype=u64)
    ndef = ~def_blk
    if len(es):
        # ``es`` ascends (a repeat of arange), so each block's outgoing
        # edges are one contiguous group: a grouped ``reduceat`` OR plus
        # one fancy-indexed merge beats the unbuffered ``bitwise_or.at``
        # scatter every sweep
        ue, estarts = np.unique(es, return_index=True)
        for _ in range(B + 2):
            live_out[ue] |= np.bitwise_or.reduceat(live_in[ed], estarts,
                                                   axis=0)
            new_in = use_blk | (live_out & ndef)
            if np.array_equal(new_in, live_in):
                break
            live_in = new_in

    # per-instruction rows: live-in of p = suffix composition applied to
    # the block's live-out; live-out of p = live-in of its successor
    # instruction (or the block's live-out at the block tail)
    if I:
        LO = live_out[seg]
        LI = (LO & K) | G
        follows = seg[1:] == seg[:-1]
        LO[:-1][follows] = LI[1:][follows]
    else:
        LI = np.zeros((0, W), dtype=u64)
        LO = np.zeros((0, W), dtype=u64)

    # decode to frozensets: bit rows repeat massively (a block's
    # live-out is its last instruction's, straight-line runs share
    # sets), so intern rows first and decode each distinct one once.
    # Identical patterns from different functions decode differently, so
    # the function id is part of the interning key.  Decoding goes
    # through interned per-byte frozensets: a ``Reg`` is a tuple, whose
    # hash is recomputed on every insertion (tuples do not cache it),
    # but ``frozenset.union`` merges entries on stored hashes, so
    # building each distinct byte pattern once and unioning cuts the
    # hash count to the distinct-byte tail.
    fid_row = np.concatenate(
        [np.repeat(np.arange(n_fns), nb)] * 2
        + [np.repeat(np.arange(n_fns), ni)] * 2)
    words = np.concatenate([live_in, live_out, LI, LO])
    inverse, rep_idx = _intern_rows(words, fid_row)
    sets = _decode_rows(words[rep_idx], fid_row[rep_idx], views)

    # the block use/def dicts are syntactic summaries — no dataflow in
    # them — so like the view's other derived structural tables they are
    # memoized per view; only views seen for the first time decode them
    need = [f for f, v in enumerate(views) if v._use_defs is None]
    if need:
        nbn = [nb[f] for f in need]
        sel = np.concatenate(
            [np.arange(block_base[f], block_base[f] + nb[f])
             for f in need])
        fid2 = np.repeat(np.asarray(need), np.asarray(nbn))
        words2 = np.concatenate([use_blk[sel], def_blk[sel]])
        fid_row2 = np.concatenate([fid2, fid2])
        inv2, rep2 = _intern_rows(words2, fid_row2)
        sets2 = _decode_rows(words2[rep2], fid_row2[rep2], views)
        inv2_list = inv2.tolist()
        gs2 = sets2.__getitem__
        off, L2 = 0, len(sel)
        for f, nbf in zip(need, nbn):
            names2 = views[f].block_names
            views[f]._use_defs = (
                dict(zip(names2, map(gs2, inv2_list[off:off + nbf]))),
                dict(zip(names2,
                         map(gs2, inv2_list[L2 + off:L2 + off + nbf]))),
            )
            off += nbf

    # per-instruction dicts use the reference's insertion order (blocks
    # in layout order, instructions reversed within each block):
    # consumers may iterate them, and a cache hit must be
    # indistinguishable.  ``rev[p]`` is the function-local index of the
    # instruction occupying position ``p`` of that walk.
    if I:
        local_start = bstart - np.repeat(ib_arr, nb_arr)
        rev = (np.repeat(2 * local_start + blen - 1, blen)
               - (np.arange(I) - np.repeat(ib_arr, ni_arr))).tolist()
    else:
        rev = []
    inv_list = inverse.tolist()
    getset = sets.__getitem__

    infos = []
    lo_slices = []
    o_lout, o_ili, o_ilo = B, 2 * B, 2 * B + I
    for f, v in enumerate(views):
        b0, i0 = block_base[f], instr_base[f]
        names = v.block_names
        n = nb[f]

        def blk_dict(off, b0=b0, n=n, names=names):
            return dict(zip(names,
                            map(getset, inv_list[off + b0:off + b0 + n])))

        use, defs = v._use_defs
        lin = blk_dict(0)
        lout = blk_dict(o_lout)
        nf = ni[f]
        revf = rev[i0:i0 + nf]
        uids = v.uid.tolist()
        ili_inv = inv_list[o_ili + i0:o_ili + i0 + nf]
        ilo_inv = inv_list[o_ilo + i0:o_ilo + i0 + nf]
        uid_rev = list(map(uids.__getitem__, revf))
        ilo = dict(zip(uid_rev,
                       map(getset, map(ilo_inv.__getitem__, revf))))
        ili = dict(zip(uid_rev,
                       map(getset, map(ili_inv.__getitem__, revf))))
        infos.append(LivenessInfo(lin, lout, use, defs, ilo, ili))
        bits = np.ascontiguousarray(LO[i0:i0 + nf])
        lo_slices.append(bits)
        if fps is not None:
            memoize_analysis(("livebits", fps[f]), lambda bits=bits: bits)
    return infos, lo_slices


def liveness_one(fn: Function, fp: Optional[Tuple] = None):
    """Vectorized :class:`LivenessInfo` of one function (a corpus of
    one).  Callers memoize."""
    from repro.analysis.cache import fingerprint_function

    if fp is None:
        fp = fingerprint_function(fn)
    infos, _ = _liveness_kernel([columnar_view(fn, fp)], [fp])
    return infos[0]


def batched_liveness(fns: Sequence[Function]) -> List:
    """Liveness for a whole corpus in one stacked fixed point.

    Returns :class:`LivenessInfo` objects aligned with ``fns`` and
    populates the analysis cache, so subsequent ``compute_liveness``
    calls on the same functions hit.  Functions already cached keep
    their cached result and are excluded from the stack.
    """
    from repro.analysis.cache import fingerprint_function

    fns = list(fns)
    return _batched_liveness(fns, [fingerprint_function(fn) for fn in fns])


def _batched_liveness(fns: List[Function], fps: List[Tuple]) -> List:
    from repro.analysis.cache import MISSING, memoize_analysis, peek_analysis

    keys = [("liveness", fp) for fp in fps]
    out = [peek_analysis(k) for k in keys]
    todo = [i for i, v in enumerate(out) if v is MISSING]
    if todo:
        infos, _ = _liveness_kernel(
            [columnar_view(fns[i], fps[i]) for i in todo],
            [fps[i] for i in todo])
        for i, info in zip(todo, infos):
            out[i] = memoize_analysis(keys[i], lambda info=info: info)
    return out


def _live_bits(fn: Function, view: ColumnarFunction, fp: Tuple):
    """Per-instruction live-out bitset rows for ``fn`` (``(n_instrs, W)``
    uint64), reusing the memoized rows from a previous liveness run when
    available."""
    from repro.analysis.cache import MISSING, peek_analysis

    bits = peek_analysis(("livebits", fp))
    if bits is MISSING:
        _, slices = _liveness_kernel([view], [fp])
        bits = slices[0]
    return bits


# ----------------------------------------------------------------------
# interference
# ----------------------------------------------------------------------

def _interference_kernel(views: Sequence[ColumnarFunction],
                         bits: Sequence, freqs: Sequence, cls: str
                         ) -> List:
    """Interference graphs for a corpus in one numpy pass.

    ``bits[f]`` holds function ``f``'s per-instruction live-out bitset
    rows (word width may vary per slice — high words are zero).  The
    graphs are structurally *identical* to the reference builder,
    including dict insertion orders: nodes enter in ``fn.registers()``
    order (the reference adds every class register up front, and every
    edge endpoint is one of them) and move weights accumulate per
    ``mov`` in block layout order, so float sums match bit for bit.
    """
    from repro.analysis.interference import InterferenceGraph

    n_fns = len(views)
    nr = [v.n_regs for v in views]
    ni = [v.n_instrs for v in views]
    reg_base = _bases(nr)
    instr_base = _bases(ni)
    Rtot = reg_base[-1] + nr[-1] if n_fns else 0
    all_regs: List = []
    for v in views:
        all_regs.extend(v.regs)
    codes = [v.cls_code(cls) for v in views]
    W = max((b.shape[1] for b in bits if b is not None and len(b)),
            default=1)

    I = instr_base[-1] + ni[-1] if n_fns else 0
    codes_arr = np.asarray([c if c is not None else -1 for c in codes])
    rb_arr = np.asarray(reg_base)
    ib_arr = np.asarray(instr_base)
    def_tot = np.asarray([len(v.def_reg) for v in views])
    regcls = _cat([v.reg_cls for v in views]) if n_fns else None
    mv_rows = mv_fid = None
    if I:
        is_mv_all = _cat([v.is_move for v in views], dtype=bool)
        mv_rows = np.nonzero(is_mv_all)[0]
        mv_fid = np.searchsorted(np.append(ib_arr[1:], I), mv_rows,
                                 side="right")

    # (Rtot, max_regs) block-diagonal boolean adjacency: corpus-global
    # register rows, function-local columns
    M = None
    if I and int(def_tot.sum()):
        # one live-out matrix for the whole corpus (narrower
        # per-function slices pad with zero high words)
        LOg = np.zeros((I, W), dtype=np.uint64)
        for f, v in enumerate(views):
            bf = bits[f]
            if bf is not None and len(bf):
                LOg[instr_base[f]:instr_base[f] + ni[f],
                    :bf.shape[1]] = bf
        # class-filtered def occurrences, corpus-global instruction ids,
        # function-local register ids
        iod = np.repeat(np.arange(I), _cat([v.def_cnt for v in views]))
        drl = _cat([v.def_reg for v in views])
        fid = np.repeat(np.arange(n_fns), def_tot)
        drg = drl + rb_arr[fid]
        m = regcls[drg] == codes_arr[fid]
        if m.any():
            iod, drl, fid, drg = iod[m], drl[m], fid[m], drg[m]
            P = len(iod)
            # expand live-after rows to booleans over function-local
            # register columns, keep same-class columns, drop the
            # defined register itself and the source of a mov (kept
            # coalescible)
            bd = LOg[iod]
            shifts = np.arange(64, dtype=np.uint64)
            bb = ((bd[:, :, None] >> shifts) & np.uint64(1)).astype(bool)
            bb = bb.reshape(P, -1)
            clsmask = np.zeros((n_fns, bb.shape[1]), dtype=bool)
            fid_of_reg = np.repeat(np.arange(n_fns), np.asarray(nr))
            if Rtot:
                clsmask[fid_of_reg,
                        np.arange(Rtot) - rb_arr[fid_of_reg]] = (
                    regcls == codes_arr[fid_of_reg])
            bb &= clsmask[fid]
            bb[np.arange(P), drl] = False
            mv_src = _cat([v.move_src for v in views])
            mv = is_mv_all[iod]
            rows = np.nonzero(mv)[0]
            if len(rows):
                bb[rows, mv_src[iod[rows]]] = False
            # accumulate the def->live rows into one boolean adjacency
            # matrix (corpus-global register rows, function-local
            # columns — a block diagonal laid out flat); the reverse
            # edges then cost one small per-function transpose instead
            # of materialising, sorting and re-scattering a pair stream
            M = np.zeros((Rtot, bb.shape[1]), dtype=bool)
            np.logical_or.at(M, drg, bb)
            # pairwise edges among one instruction's defs (call
            # clobbers); one direction suffices before the symmetrize
            multi = np.nonzero(np.bincount(iod, minlength=I) >= 2)[0]
            if len(multi):
                s = np.searchsorted(iod, multi, side="left").tolist()
                e = np.searchsorted(iod, multi, side="right").tolist()
                gdr = drg.tolist()
                ldr = drl.tolist()
                for t in range(len(multi)):
                    ds = ldr[s[t]:e[t]]
                    gs = gdr[s[t]:e[t]]
                    for x in range(len(ds)):
                        for y in range(x + 1, len(ds)):
                            if ds[x] != ds[y]:
                                M[gs[x], ds[y]] = True
            for f in range(n_fns):
                sq = M[reg_base[f]:reg_base[f] + nr[f], :nr[f]]
                sq |= sq.T.copy()

    # node dicts cloned from the view's memoized per-class seed —
    # ``dict(seed)`` reuses the stored key hashes, so seeding rehashes no
    # register after the first run.  Nodes that keep no
    # edges share the module-level empty set, which is safe because the
    # kernel's graphs are only ever read or deep-copied:
    # ``build_interference`` memoizes them and hands each caller a
    # private ``copy()`` (which rebuilds every set), and the mutating
    # methods run on those copies.
    geti = all_regs.__getitem__
    shared_empty = _EMPTY_NODE_SET
    graphs = []
    for v in views:
        g = InterferenceGraph()
        g._adj = dict(v.cls_seed(cls, shared_empty))
        graphs.append(g)

    if M is not None:
        # rows with any edge, ascending global id (function ids come out
        # non-decreasing).  Packing the boolean rows into uint64 words
        # feeds the usual intern-and-decode path: interference
        # neighbourhoods overlap heavily (cliques), so interning rows
        # and decoding through shared byte sets hashes each register
        # once per view instead of once per edge.  Nodes with equal
        # neighbourhoods share one set object — see the copy() note
        # above.
        unodes = np.nonzero(M.any(axis=1))[0]
        if len(unodes):
            ufid = np.searchsorted(np.append(rb_arr[1:], Rtot), unodes,
                                   side="right")
            NB = np.packbits(M[unodes], axis=-1,
                             bitorder="little").view(np.uint64)
            inv_rows, rep_idx = _intern_rows(NB, ufid)
            row_sets = _decode_rows(NB[rep_idx], ufid[rep_idx], views,
                                    frozen=False)
            objs = list(map(geti, unodes.tolist()))
            node_sets = list(map(row_sets.__getitem__, inv_rows.tolist()))
            # fill each graph's nodes with one C-level dict update
            bounds_f = np.searchsorted(ufid, np.arange(n_fns + 1)).tolist()
            for f in range(n_fns):
                s, e = bounds_f[f], bounds_f[f + 1]
                if s < e:
                    graphs[f]._adj.update(zip(objs[s:e], node_sets[s:e]))

    # moves: group by canonical (Reg-ordered) endpoint pair.  The dict
    # gets its keys in first-occurrence layout order and each weight
    # accumulates left to right over that pair's ``mov``s, exactly like
    # repeated ``add_move`` calls; with no frequencies every term is 1.0
    # and the sum is the exact float count.
    if mv_rows is not None and len(mv_rows):
        mlo = _cat([v.move_canon()[0] for v in views])
        mhi = _cat([v.move_canon()[1] for v in views])
        glo = mlo.clip(min=0) + rb_arr[mv_fid]
        ghi = mhi.clip(min=0) + rb_arr[mv_fid]
        ok = ((mlo >= 0) & (regcls[glo] == codes_arr[mv_fid])
              & (regcls[ghi] == codes_arr[mv_fid]))
        if ok.any():
            glo, ghi = glo[ok], ghi[ok]
            keys = glo * Rtot + ghi
            korder = np.argsort(keys, kind="stable")
            ks = keys[korder]
            ukm, gstart, gcount = np.unique(ks, return_index=True,
                                            return_counts=True)
            if all(f is None for f in freqs):
                acc = gcount.astype(float)
            else:
                rows_ok = mv_rows[ok]
                fid_ok = mv_fid[ok].tolist()
                li_ok = (rows_ok - ib_arr[mv_fid[ok]]).tolist()
                wl = []
                for f, li in zip(fid_ok, li_ok):
                    freq = freqs[f]
                    if freq:
                        v = views[f]
                        wl.append(freq.get(
                            v.block_names[int(v.block_of_instr[li])], 1.0))
                    else:
                        wl.append(1.0)
                wss = np.asarray(wl)[korder]
                acc = np.zeros(len(ukm), dtype=float)
                for j in range(int(gcount.max())):
                    sel = gcount > j
                    acc[sel] += wss[gstart[sel] + j]
            stream = np.argsort(korder[gstart], kind="stable")
            pfid = np.searchsorted(np.append(rb_arr[1:], Rtot),
                                   ukm[stream] // Rtot,
                                   side="right").tolist()
            for k_, w_, f_ in zip(ukm[stream].tolist(),
                                  acc[stream].tolist(), pfid):
                graphs[f_].moves[(geti(k_ // Rtot), geti(k_ % Rtot))] = w_
    return graphs


def interference_one(fn: Function, freq: Optional[Dict[str, float]],
                     cls: str, fp: Optional[Tuple] = None):
    """Vectorized interference graph of one function."""
    from repro.analysis.cache import fingerprint_function

    if fp is None:
        fp = fingerprint_function(fn)
    v = columnar_view(fn, fp)
    bits = _live_bits(fn, v, fp)
    return _interference_kernel([v], [bits], [freq], cls)[0]


# ----------------------------------------------------------------------
# adjacency
# ----------------------------------------------------------------------

def _adjacency_kernel(views: Sequence[ColumnarFunction], order: str,
                      cls: str, freqs: Sequence) -> List:
    """Adjacency graphs for a corpus in one numpy pass.

    Edge weights are accumulated per key in the reference's exact
    occurrence order — all in-block pairs in layout order, then
    cross-CFG pairs in (block layout, predecessor) order — via a
    positional j-loop over stable-sorted groups, never a pairwise
    reduction, so float sums are bit-identical.  Edge/node dict
    insertion follows first-occurrence order for the same reason.
    Register ids are offset per function, so keys never collide across
    the corpus and one grouping pass serves every graph.
    """
    from repro.analysis.adjacency import AdjacencyGraph

    n_fns = len(views)
    nr = [v.n_regs for v in views]
    nb = [v.n_blocks for v in views]
    reg_base = _bases(nr)
    block_base = _bases(nb)
    Rtot = reg_base[-1] + nr[-1] if n_fns else 0
    Btot = block_base[-1] + nb[-1] if n_fns else 0
    all_regs: List = []
    for v in views:
        all_regs.extend(v.regs)
    graphs = [AdjacencyGraph() for _ in views]

    if all(f is None for f in freqs):
        fvals = np.ones(Btot, dtype=float)
    else:
        fvals = _cat([np.array([freqs[f].get(nm, 1.0)
                                for nm in v.block_names], dtype=float)
                      if freqs[f] else np.ones(nb[f], dtype=float)
                      for f, v in enumerate(views)], dtype=float)

    # one globally-shifted access stream for the whole corpus: fields of
    # every selected view concatenated once, register/block/instruction
    # ids offset per function with a single repeat each
    use_f = [f for f, v in enumerate(views)
             if v.n_instrs and v.cls_code(cls) is not None]
    if not use_f:
        return graphs
    flats = [views[f].access_fields(order) for f in use_f]
    lens = np.asarray([len(t[0]) for t in flats])
    rb_arr = np.asarray(reg_base)
    bb_arr = np.asarray(block_base)
    ib_arr = np.asarray(_bases([v.n_instrs for v in views]))
    fof = np.repeat(np.asarray(use_f), lens)
    gflat = _cat([t[0] for t in flats]) + rb_arr[fof]
    giof = _cat([t[1] for t in flats]) + ib_arr[fof]
    regcls = _cat([v.reg_cls for v in views])
    boi = _cat([v.block_of_instr for v in views])
    codes_arr = np.asarray([c if c is not None else -1 for c in
                            (v.cls_code(cls) for v in views)])
    m = regcls[gflat] == codes_arr[fof]
    if not m.any():
        return graphs
    seq = gflat[m]
    blk = boi[giof[m]] + bb_arr[fof[m]]

    # consecutive accesses within one block (block ids are globally
    # unique, so function boundaries never pair)
    same = blk[1:] == blk[:-1]
    u_in, v_in = seq[:-1][same], seq[1:][same]
    w_in = fvals[blk[1:][same]]

    # cross-CFG pairs: (last access of pred, first access of block),
    # weight f(block)/#preds — all preds count in the divisor, only
    # preds with accesses contribute an edge
    counts_b = np.bincount(blk, minlength=Btot)
    starts_b = np.searchsorted(blk, np.arange(Btot))
    have = counts_b > 0
    first_f = np.full(Btot, -1, dtype=np.int64)
    last_f = np.full(Btot, -1, dtype=np.int64)
    hb = np.nonzero(have)[0]
    first_f[hb] = seq[starts_b[hb]]
    last_f[hb] = seq[starts_b[hb] + counts_b[hb] - 1]
    pc = np.concatenate([np.diff(v.pred_off) for v in views]) \
        if n_fns else np.zeros(0, dtype=np.int64)
    b_of_p = np.repeat(np.arange(Btot), pc)
    preds = np.concatenate([v.pred + block_base[f]
                            for f, v in enumerate(views)
                            if len(v.pred)] or
                           [np.zeros(0, dtype=np.int64)])
    ok = have[b_of_p] & have[preds]
    bb, pp = b_of_p[ok], preds[ok]
    u_x, v_x = last_f[pp], first_f[bb]
    w_x = fvals[bb] / pc[bb]

    us = np.concatenate([u_in, u_x])
    vs = np.concatenate([v_in, v_x])
    ws = np.concatenate([w_in, w_x])
    keep = us != vs  # self edges are never stored
    us, vs, ws = us[keep], vs[keep], ws[keep]
    if not len(us):
        return graphs
    keys = us * Rtot + vs
    korder = np.argsort(keys, kind="stable")
    ks, wss = keys[korder], ws[korder]
    uk, gstart, gcount = np.unique(ks, return_index=True,
                                   return_counts=True)
    acc = np.zeros(len(uk), dtype=float)
    for j in range(int(gcount.max())):
        sel = gcount > j
        acc[sel] += wss[gstart[sel] + j]
    # emit in first-occurrence order so node/edge dict insertion matches
    # the reference's add_edge stream exactly.  Nodes first (their dict
    # position is their first appearance in the u-then-v edge stream),
    # then out-edges grouped by source and in-edges grouped by target —
    # stable grouping keeps stream order within each group, which is
    # exactly each inner dict's insertion order, while hashing every
    # endpoint once per pass instead of once per edge side.
    stream = np.argsort(korder[gstart], kind="stable")
    su = uk[stream] // Rtot
    sv = uk[stream] % Rtot
    acc_s = acc[stream]
    rb_bounds = np.asarray(reg_base[1:] + [Rtot])
    geti = all_regs.__getitem__
    il = np.empty(2 * len(su), dtype=np.int64)
    il[0::2] = su
    il[1::2] = sv
    _, nfirst = np.unique(il, return_index=True)
    node_ids = il[np.sort(nfirst)]
    node_fid = np.searchsorted(rb_bounds, node_ids, side="right")
    # group the edge stream by endpoint and build every inner dict at C
    # speed first, then install each node's pair of dicts with a single
    # store per side, in first-appearance order (their dict position).
    # Nodes with no out- (or in-) edges share one empty dict — safe
    # because callers only see deep copies (``build_adjacency`` returns
    # ``copy()``, which rebuilds every inner dict) and the mutating
    # methods run on those copies.
    packs = []
    for keys_arr, others in ((su, sv), (sv, su)):
        gorder = np.argsort(keys_arr, kind="stable")
        uo, first = np.unique(keys_arr[gorder], return_index=True)
        bounds = np.append(first, len(gorder)).tolist()
        os_objs = list(map(geti, others[gorder].tolist()))
        ws = acc_s[gorder].tolist()
        dicts = [dict(zip(os_objs[bounds[t]:bounds[t + 1]],
                          ws[bounds[t]:bounds[t + 1]]))
                 for t in range(len(uo))]
        pos = np.searchsorted(uo, node_ids)
        has = (pos < len(uo))
        pos = pos.clip(max=max(len(uo) - 1, 0))
        has &= uo[pos] == node_ids
        packs.append((np.where(has, pos, -1).tolist(), dicts))
    shared_empty: Dict = {}
    (sel_out, dicts_out), (sel_in, dicts_in) = packs
    for r, f, po, pi in zip(map(geti, node_ids.tolist()),
                            node_fid.tolist(), sel_out, sel_in):
        g = graphs[f]
        g._out[r] = dicts_out[po] if po >= 0 else shared_empty
        g._in[r] = dicts_in[pi] if pi >= 0 else shared_empty
    return graphs


def adjacency_one(fn: Function, order: str, cls: str,
                  freq: Optional[Mapping[str, float]],
                  fp: Optional[Tuple] = None):
    """Vectorized adjacency graph of one function."""
    from repro.analysis.cache import fingerprint_function

    if fp is None:
        fp = fingerprint_function(fn)
    return _adjacency_kernel([columnar_view(fn, fp)], order, cls,
                             [freq])[0]


# ----------------------------------------------------------------------
# corpus prewarm
# ----------------------------------------------------------------------

def prewarm_corpus(fns: Sequence[Function], cls: str = "int",
                   interference: bool = True) -> int:
    """Analyze a corpus in one vectorized pass, warming the analysis
    cache so the per-function pipelines that follow hit instead of
    recomputing.  Returns the number of functions analyzed.

    Liveness runs as one stacked fixed point over the whole batch;
    interference (``freq=None`` — the graph the allocator's first
    iteration asks for) reuses each function's live-out bitsets in a
    second corpus pass.
    """
    from repro.analysis.cache import (MISSING, fingerprint_function,
                                      memoize_analysis, peek_analysis)

    fns = list(fns)
    if not fns:
        return 0
    fps = [fingerprint_function(fn) for fn in fns]
    _batched_liveness(fns, fps)
    if interference:
        todo = [i for i in range(len(fns))
                if peek_analysis(("interference", cls, None, fps[i]))
                is MISSING]
        if todo:
            views = [columnar_view(fns[i], fps[i]) for i in todo]
            bits = [_live_bits(fns[i], v, fps[i])
                    for i, v in zip(todo, views)]
            graphs = _interference_kernel(views, bits,
                                          [None] * len(todo), cls)
            for i, g in zip(todo, graphs):
                memoize_analysis(("interference", cls, None, fps[i]),
                                 lambda g=g: g)
    return len(fns)
