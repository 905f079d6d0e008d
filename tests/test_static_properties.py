"""Hypothesis agreement properties: static verifier vs. decode replay.

The static verifier's abstract decode model is *exact* for the per-class
``last_reg`` collecting semantics, so its verdict must agree with the
dynamic decode-replay verifier in both directions — on clean encoder
output, under arbitrary repair deletions, and under code corruption.
The elimination pass rides on the same facts: anything it removes must
leave an encoding the replay verifier still accepts.
"""

from hypothesis import HealthCheck, assume, given, settings, strategies as st

from tests.conftest import fuzz_programs
from repro.encoding import (
    EncodingConfig,
    analyze_last_reg,
    eliminate_redundant_setlr,
    encode_function,
    verify_encoding,
    verify_encoding_static,
)
from repro.encoding.verifier import EncodingError
from repro.ir.instr import Instr
from repro.regalloc import iterated_allocate

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_REG_N = 12


def _encode(fn, diff_n):
    res = iterated_allocate(fn, _REG_N)
    return encode_function(res.fn, EncodingConfig(reg_n=_REG_N, diff_n=diff_n))


def _replay_ok(enc) -> bool:
    try:
        verify_encoding(enc)
        return True
    except EncodingError:
        return False


class TestStaticReplayAgreement:
    @given(fn=fuzz_programs(), diff_n=st.sampled_from((2, 4, 8)))
    @settings(max_examples=25, **COMMON)
    def test_clean_encodings_pass_both(self, fn, diff_n):
        enc = _encode(fn, diff_n)
        sv = verify_encoding_static(enc)
        assert sv.ok, sv.report.render_text()
        verify_encoding(enc)

    @given(fn=fuzz_programs(), diff_n=st.sampled_from((2, 4)),
           data=st.data())
    @settings(max_examples=25, **COMMON)
    def test_agreement_under_repair_deletion(self, fn, diff_n, data):
        # delete an arbitrary subset of set_last_reg repairs: the static
        # verdict must match replay exactly — deleting a *necessary*
        # repair fails both, deleting a removable one fails neither
        enc = _encode(fn, diff_n)
        sites = [(b.name, i) for b in enc.fn.blocks
                 for i, ins in enumerate(b.instrs) if ins.op == "setlr"]
        assume(sites)
        doomed = set(data.draw(
            st.lists(st.sampled_from(sites), unique=True),
            label="deleted repairs"))
        for b in enc.fn.blocks:
            b.instrs = [ins for i, ins in enumerate(b.instrs)
                        if (b.name, i) not in doomed]
        assert verify_encoding_static(enc).ok == _replay_ok(enc)

    @given(fn=fuzz_programs(), data=st.data())
    @settings(max_examples=25, **COMMON)
    def test_agreement_under_code_corruption(self, fn, data):
        # flipping any packed field code to a different value always
        # changes the decoded register, so both verifiers must reject
        diff_n = 4
        enc = _encode(fn, diff_n)
        coded = sorted(u for u, c in enc.field_codes.items() if c)
        assume(coded)
        uid = data.draw(st.sampled_from(coded), label="field uid")
        codes = list(enc.field_codes[uid])
        idx = data.draw(st.integers(min_value=0, max_value=len(codes) - 1),
                        label="code index")
        delta = data.draw(st.integers(min_value=1, max_value=diff_n - 1),
                          label="corruption delta")
        codes[idx] = (codes[idx] + delta) % diff_n
        enc.field_codes[uid] = tuple(codes)
        sv = verify_encoding_static(enc)
        assert not sv.ok
        assert not _replay_ok(enc)


class TestEliminationPreservesReplay:
    @given(fn=fuzz_programs(), diff_n=st.sampled_from((2, 4, 8)))
    @settings(max_examples=25, **COMMON)
    def test_elimination_keeps_replay_green(self, fn, diff_n):
        enc = _encode(fn, diff_n)
        eliminate_redundant_setlr(enc)
        verify_encoding(enc)  # replay must still accept the encoding
        # and the pass must have run to a genuine fixed point
        analysis = analyze_last_reg(enc.fn, enc.config)
        assert not any(f.removable for f in analysis.setlr_facts)

    @given(fn=fuzz_programs(), diff_n=st.sampled_from((4, 8)),
           data=st.data())
    @settings(max_examples=25, **COMMON)
    def test_injected_redundant_repair_is_found_and_removed(self, fn,
                                                           diff_n, data):
        # inject a repair that writes the exact concrete entry state of
        # some block: redundant by construction, so the static facts must
        # flag it and deletion must preserve replay verification
        enc = _encode(fn, diff_n)
        analysis = analyze_last_reg(enc.fn, enc.config)
        concrete = [
            (name, st_map["int"])
            for name, st_map in analysis.entry_states.items()
            if st_map is not None and isinstance(st_map.get("int"), int)
            and enc.fn.block(name).instrs
        ]
        assume(concrete)
        name, value = data.draw(st.sampled_from(concrete), label="block")
        enc.fn.block(name).instrs.insert(
            0, Instr("setlr", imm=(value, 0, "int")))
        before = analyze_last_reg(enc.fn, enc.config)
        injected = before.setlr_facts[
            [f.block for f in before.setlr_facts].index(name)]
        assert injected.redundant
        res = eliminate_redundant_setlr(enc)
        assert res.n_removed >= 1
        verify_encoding(enc)
