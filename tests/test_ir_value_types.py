"""The IR's hot value types and the array-built residence ILP.

``Reg`` is a tuple subclass whose hash, equality and ordering are the
C tuple operations; the pins below hold it to the exact hash and order
the earlier frozen-dataclass ``Reg`` had, so set/dict iteration order —
and with it every allocation — is unchanged.  ``Instr`` is slotted and
copies without re-validation.  The ILP model is built from arrays; the
per-entry builder it replaced is kept here as the oracle.
"""

import copy
import pickle
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Set, Tuple

import numpy as np
import pytest

from repro.ir import Instr, Reg, phys, vreg


@dataclass(frozen=True, order=True)
class _DataclassReg:
    """The field layout ``Reg`` had as a frozen, ordered dataclass."""

    id: int
    virtual: bool = True
    cls: str = "int"


def _sample_regs() -> List[Reg]:
    return [Reg(i, virtual=v, cls=c)
            for i in (0, 1, 2, 7, 15, 31, 300)
            for v in (True, False)
            for c in ("int", "float")]


class TestReg:
    def test_hash_is_the_field_tuple_hash(self):
        for r in _sample_regs():
            assert hash(r) == hash((r.id, r.virtual, r.cls))
            assert hash(r) == hash(_DataclassReg(r.id, r.virtual, r.cls))

    def test_set_iteration_order_matches_dataclass(self):
        regs = _sample_regs()[::-1]
        old = [_DataclassReg(*r) for r in regs]
        assert [tuple(r) for r in set(regs)] == \
            [(o.id, o.virtual, o.cls) for o in set(old)]

    def test_ordering_is_tuple_order(self):
        regs = _sample_regs()[::-1]
        assert sorted(regs) == sorted(regs, key=tuple)
        assert [tuple(r) for r in sorted(regs)] == \
            [(o.id, o.virtual, o.cls)
             for o in sorted(_DataclassReg(*r) for r in regs)]
        assert phys(3) < vreg(3) < vreg(4)

    def test_fields(self):
        r = Reg(5, virtual=False, cls="float")
        assert (r.id, r.virtual, r.cls) == (5, False, "float")
        assert r == (5, False, "float") and len(r) == 3

    def test_keyword_and_default_construction(self):
        assert Reg(id=4, virtual=False, cls="int") == phys(4)
        assert Reg(4) == vreg(4)
        assert Reg(4, False) == phys(4)

    def test_negative_id_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Reg(-1)

    def test_str_and_repr_unchanged(self):
        assert str(vreg(3)) == repr(vreg(3)) == "v3"
        assert str(phys(7)) == repr(phys(7)) == "r7"
        assert str(vreg(2, "float")) == repr(vreg(2, "float")) == "v2.float"
        assert f"{phys(1)}" == "r1"
        assert repr([vreg(0), phys(1)]) == "[v0, r1]"

    @pytest.mark.parametrize("clone", [
        lambda r: pickle.loads(pickle.dumps(r)),
        lambda r: pickle.loads(pickle.dumps(r, protocol=0)),
        copy.copy,
        copy.deepcopy,
    ], ids=["pickle", "pickle-0", "copy", "deepcopy"])
    def test_round_trips_keep_the_type(self, clone):
        for r in _sample_regs():
            out = clone(r)
            assert type(out) is Reg and out == r and str(out) == str(r)

    def test_immutable(self):
        r = vreg(1)
        with pytest.raises(AttributeError):
            r.id = 2
        with pytest.raises(AttributeError):
            r.extra = 1


class TestInstr:
    def test_copy_keeps_every_field(self):
        i = Instr("call", label="g", call_uses=(vreg(1), vreg(2)),
                  call_defs=(vreg(0),))
        c = i.copy()
        assert c is not i and c == i and c.uid == i.uid
        for name in ("op", "dst", "srcs", "imm", "label", "call_uses",
                     "call_defs", "uid"):
            assert getattr(c, name) == getattr(i, name)

    def test_copy_is_independent(self):
        i = Instr("add", dst=vreg(0), srcs=(vreg(1), vreg(2)))
        c = i.copy()
        c.dst = vreg(9)
        c.srcs = (vreg(8), vreg(7))
        assert i.dst == vreg(0) and i.srcs == (vreg(1), vreg(2))

    def test_rewrite_call(self):
        i = Instr("call", label="g", call_uses=(vreg(1), vreg(2)),
                  call_defs=(vreg(1),))
        out = i.rewrite({vreg(1): phys(0), vreg(2): phys(1)})
        assert out.call_uses == (phys(0), phys(1))
        assert out.call_defs == (phys(0),)
        assert out.uid == i.uid and out.label == "g"
        assert i.call_uses == (vreg(1), vreg(2))

    def test_rewrite_alu_keeps_unmapped(self):
        i = Instr("add", dst=vreg(0), srcs=(vreg(1), vreg(2)))
        out = i.rewrite({vreg(2): phys(5)})
        assert (out.dst, out.srcs) == (vreg(0), (vreg(1), phys(5)))

    def test_unknown_attribute_rejected(self):
        i = Instr("nop")
        with pytest.raises(AttributeError):
            i.scratch = 1

    def test_pickle_round_trip(self):
        i = Instr("ld", dst=vreg(0), srcs=(vreg(1),), imm=4)
        out = pickle.loads(pickle.dumps(i))
        assert out == i and out.uid == i.uid


# ----------------------------------------------------------------------
# residence ILP: array builder vs the per-entry oracle
# ----------------------------------------------------------------------


def _phys_pressure(fn, block: str, j: int) -> int:
    """Int physical registers live at point ``j`` of ``block``, walked
    from liveness independently of ``_Points.phys``."""
    from repro.analysis.liveness import compute_liveness

    liveness = compute_liveness(fn)
    b = fn.block(block)
    live = (liveness.instr_live_in[b.instrs[j].uid] if j < len(b.instrs)
            else liveness.live_out[block])
    return sum(1 for r in live if not r.virtual and r.cls == "int")


def _per_entry_model(fn, k: int, pts, freq: Mapping[str, float],
                     forced: Set[Tuple[Reg, str, int]],
                     load_cost: float, store_cost: float,
                     max_ilp_vars: int) -> Optional[Dict[str, object]]:
    """The residence ILP built one COO entry at a time — the plain
    formulation ``optimal_spill._build_ilp_model`` must reproduce
    triplet for triplet, so HiGHS sees the same model."""
    x_index: Dict[Tuple[Reg, str, int], int] = {}
    for (block, j), live in sorted(
            pts.live_at.items(), key=lambda it: (it[0][0], it[0][1])):
        for v in sorted(live):
            x_index[(v, block, j)] = len(x_index)
    n_x = len(x_index)

    cost_terms: List[Tuple[int, int, float]] = []
    store_terms: List[Tuple[int, int, float]] = []
    for b in fn.blocks:
        w = freq.get(b.name, 1.0)
        for j, instr in enumerate(b.instrs):
            defs = set(instr.defs())
            for v in sorted(pts.live_at[(b.name, j)]):
                if v not in pts.live_at[(b.name, j + 1)]:
                    continue
                if v in defs:
                    continue
                pre = x_index[(v, b.name, j)]
                post = x_index[(v, b.name, j + 1)]
                cost_terms.append((pre, post, w * load_cost))
                store_terms.append((pre, post, w * store_cost))

    n_l = len(cost_terms)
    n_s = len(store_terms)
    n_vars = n_x + n_l + n_s
    if n_vars > max_ilp_vars:
        return None

    c = np.zeros(n_vars)
    for t, (_, _, w) in enumerate(cost_terms):
        c[n_x + t] = w
    for t, (_, _, w) in enumerate(store_terms):
        c[n_x + n_l + t] = w

    rows: List[int] = []
    cols: List[int] = []
    vals: List[float] = []
    lb: List[float] = []
    ub: List[float] = []
    row = 0

    def add_entry(r: int, col: int, val: float) -> None:
        rows.append(r)
        cols.append(col)
        vals.append(val)

    for (block, j), live in pts.live_at.items():
        if not live:
            continue
        for v in sorted(live):
            add_entry(row, x_index[(v, block, j)], 1.0)
        lb.append(-np.inf)
        ub.append(float(k - _phys_pressure(fn, block, j)))
        row += 1
    for t, (pre, post, _) in enumerate(cost_terms):
        add_entry(row, post, 1.0)
        add_entry(row, pre, -1.0)
        add_entry(row, n_x + t, -1.0)
        lb.append(-np.inf)
        ub.append(0.0)
        row += 1
    for t, (pre, post, _) in enumerate(store_terms):
        add_entry(row, pre, 1.0)
        add_entry(row, post, -1.0)
        add_entry(row, n_x + n_l + t, -1.0)
        lb.append(-np.inf)
        ub.append(0.0)
        row += 1
    succs, _ = fn.cfg()
    for p in fn.blocks:
        np_ = len(p.instrs)
        for s in succs[p.name]:
            for v in sorted(pts.live_at[(s, 0)]):
                kp = (v, p.name, np_)
                ks = (v, s, 0)
                if kp not in x_index or ks not in x_index:
                    continue
                add_entry(row, x_index[kp], 1.0)
                add_entry(row, x_index[ks], -1.0)
                lb.append(0.0)
                ub.append(0.0)
                row += 1

    var_lb = np.zeros(n_vars)
    var_ub = np.ones(n_vars)
    for key in forced:
        if key in x_index:
            var_lb[x_index[key]] = 1.0
    integrality = np.zeros(n_vars)
    integrality[:n_x] = 1
    return {"x_index": x_index, "c": c, "rows": rows, "cols": cols,
            "vals": vals, "lb": np.array(lb), "ub": np.array(ub),
            "var_lb": var_lb, "var_ub": var_ub, "integrality": integrality,
            "shape": (row, n_vars)}


def _models(fn, k: int, max_ilp_vars: int = 60_000):
    from repro.analysis.frequency import estimate_block_frequencies
    from repro.analysis.liveness import compute_liveness
    from repro.regalloc.optimal_spill import (_build_ilp_model,
                                              _forced_points, _Points)

    freq = estimate_block_frequencies(fn)
    pts = _Points.build(fn, compute_liveness(fn))
    forced = _forced_points(fn)
    args = (fn, k, pts, freq, forced, 1.0, 2.0, max_ilp_vars)
    return _build_ilp_model(*args), _per_entry_model(*args)


def _assert_same_model(model, oracle) -> None:
    assert list(model.x_index.items()) == list(oracle["x_index"].items())
    assert model.shape == oracle["shape"]
    assert model.rows.tolist() == oracle["rows"]
    assert model.cols.tolist() == oracle["cols"]
    assert model.vals.tolist() == oracle["vals"]
    for name in ("c", "lb", "ub", "var_lb", "var_ub"):
        got, want = getattr(model, name), oracle[name]
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name
    # the solver takes the leading len(x_index) columns as the integers
    n_vars = oracle["shape"][1]
    assert (oracle["integrality"]
            == (np.arange(n_vars) < len(model.x_index))).all()


def _mibench():
    from repro.workloads.mibench import MIBENCH

    return [w.function() for w in MIBENCH]


@pytest.mark.parametrize("k", [7, 8, 12])
def test_ilp_model_matches_per_entry_builder_mibench(k):
    for fn in _mibench():
        model, oracle = _models(fn, k)
        _assert_same_model(model, oracle)


@pytest.mark.parametrize("seed", [1, 7, 23, 42])
def test_ilp_model_matches_per_entry_builder_fuzz(seed):
    from repro.fuzz.gen import generate_fuzz_function

    fn = generate_fuzz_function(seed)
    for k in (4, 8):
        model, oracle = _models(fn, k)
        _assert_same_model(model, oracle)


def test_ilp_model_size_cap_matches_oracle():
    fn = _mibench()[0]
    model, oracle = _models(fn, 8, max_ilp_vars=10)
    assert model is None and oracle is None
