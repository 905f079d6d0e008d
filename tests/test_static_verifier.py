"""Tests for the static decode-stage verifier and set_last_reg elimination."""

import pytest

from repro.encoding import (
    EncodingConfig,
    TOP,
    analyze_last_reg,
    encode_function,
    eliminate_redundant_setlr,
    verify_encoding,
    verify_encoding_static,
)
from repro.encoding.verifier import EncodingError
from repro.ir import parse_function
from repro.ir.instr import Instr
from repro.machine import simulate
from repro.regalloc.pipeline import run_setup
from repro.workloads.mibench import get_workload


STRAIGHT = """
func f(r1):
entry:
    addi r2, r1, 1
    add r3, r1, r2
    ret r3
"""

DIAMOND = """
func f(r1):
entry:
    addi r2, r1, 1
    blt r1, r2, left
right:
    addi r3, r2, 2
    br join
left:
    addi r4, r1, 3
join:
    add r5, r1, r1
exit:
    ret r5
"""


def _cfg(**kw):
    kw.setdefault("reg_n", 8)
    kw.setdefault("diff_n", 8)
    return EncodingConfig(**kw)


class TestAbstractStates:
    def test_straightline_states_match_encoder(self):
        fn = parse_function(STRAIGHT)
        enc = encode_function(fn, _cfg())
        a = analyze_last_reg(enc.fn, enc.config)
        for b in enc.fn.blocks:
            assert a.entry_states[b.name] == enc.entry_values[b.name]
            assert a.exit_states[b.name] == enc.exit_values[b.name]

    def test_join_of_agreeing_paths_is_concrete(self):
        fn = parse_function(DIAMOND)
        enc = encode_function(fn, _cfg())
        a = analyze_last_reg(enc.fn, enc.config)
        v = a.entry_states["join"]["int"]
        assert v is not TOP and isinstance(v, int)

    def test_unreachable_block_is_bottom(self):
        fn = parse_function("""
func f(r1):
entry:
    ret r1
orphan:
    addi r2, r1, 1
    ret r2
""")
        enc = encode_function(fn, _cfg())
        a = analyze_last_reg(enc.fn, enc.config)
        assert a.entry_states["orphan"] is None
        assert a.exit_states["orphan"] is None

    def test_conflicting_join_is_top(self):
        # strip the encoder's join repairs: the join entry becomes ⊤
        fn = parse_function(DIAMOND)
        enc = encode_function(fn, _cfg(reg_n=8, diff_n=2))
        for b in enc.fn.blocks:
            b.instrs = [i for i in b.instrs if i.op != "setlr"]
        a = analyze_last_reg(enc.fn, enc.config)
        assert any(
            st is not None and any(v is TOP for v in st.values())
            for st in a.entry_states.values()
        )


class TestStaticVerifier:
    def test_clean_encoding_passes(self):
        for text in (STRAIGHT, DIAMOND):
            enc = encode_function(parse_function(text), _cfg(diff_n=2))
            sv = verify_encoding_static(enc)
            assert sv.ok, sv.report.render_text()
            verify_encoding(enc)  # agreement on the passing side

    def test_corrupt_code_flagged_and_replay_agrees(self):
        enc = encode_function(parse_function(DIAMOND), _cfg(diff_n=2))
        uid = next(u for u, codes in enc.field_codes.items() if codes)
        codes = enc.field_codes[uid]
        enc.field_codes[uid] = tuple((c + 1) % 2 for c in codes)
        sv = verify_encoding_static(enc)
        assert not sv.ok
        assert sv.report.by_rule("E001")
        with pytest.raises(EncodingError):
            verify_encoding(enc)

    def test_stripped_join_repair_is_undecodable(self):
        enc = encode_function(parse_function(DIAMOND), _cfg(diff_n=2))
        stripped = 0
        for b in enc.fn.blocks:
            n = len(b.instrs)
            b.instrs = [i for i in b.instrs if i.op != "setlr"]
            stripped += n - len(b.instrs)
        if stripped == 0:
            pytest.skip("no repairs to strip under this config")
        sv = verify_encoding_static(enc)
        # every error must be mirrored by a replay failure
        if not sv.ok:
            with pytest.raises(EncodingError):
                verify_encoding(enc)

    def test_missing_field_code_is_e003(self):
        enc = encode_function(parse_function(STRAIGHT), _cfg())
        uid = next(u for u, codes in enc.field_codes.items() if codes)
        enc.field_codes[uid] = ()
        sv = verify_encoding_static(enc)
        assert sv.report.by_rule("E003")
        with pytest.raises(EncodingError):
            verify_encoding(enc)

    def test_delay_overflow_is_e004(self):
        enc = encode_function(parse_function(STRAIGHT), _cfg())
        # a delayed repair with more delay than remaining fields
        enc.fn.block("entry").instrs.insert(
            0, Instr("setlr", imm=(3, 99, "int")))
        sv = verify_encoding_static(enc)
        assert sv.report.by_rule("E004")
        with pytest.raises(EncodingError):
            verify_encoding(enc)

    def test_redundant_setlr_is_e005_warning_not_error(self):
        enc = encode_function(parse_function(STRAIGHT), _cfg())
        # after 'addi r2, r1, 1' decode leaves last=2; writing 2 is a no-op
        enc.fn.block("entry").instrs.insert(
            1, Instr("setlr", imm=(2, 0, "int")))
        sv = verify_encoding_static(enc)
        assert sv.ok  # warning only
        assert sv.report.by_rule("E005")
        verify_encoding(enc)

    def test_dead_setlr_is_e006_warning(self):
        enc = encode_function(parse_function(STRAIGHT), _cfg())
        # write directly before the ret's only field overwrites... place a
        # setlr whose value no later field reads differentially: diff_n=8
        # makes every diff in range, but the written value IS read by the
        # next decode; use a value written after the last field instead
        enc.fn.block("entry").instrs.append(
            Instr("setlr", imm=(5, 0, "int")))
        sv = verify_encoding_static(enc)
        assert sv.ok
        assert sv.report.by_rule("E006")
        verify_encoding(enc)


class TestSetlrFacts:
    def test_redundant_fact(self):
        enc = encode_function(parse_function(STRAIGHT), _cfg())
        enc.fn.block("entry").instrs.insert(
            1, Instr("setlr", imm=(2, 0, "int")))
        a = analyze_last_reg(enc.fn, enc.config)
        assert a.n_redundant == 1
        fact = a.setlr_facts[0]
        assert fact.redundant and fact.last_at_fire == 2

    def test_delayed_fire_point(self):
        # delay=1 setlr before 'add r3, r1, r2' fires after the r1 field:
        # at that point last=1, so writing 1 is redundant
        enc = encode_function(parse_function(STRAIGHT), _cfg())
        enc.fn.block("entry").instrs.insert(
            1, Instr("setlr", imm=(1, 1, "int")))
        a = analyze_last_reg(enc.fn, enc.config)
        assert a.setlr_facts[0].last_at_fire == 1
        assert a.setlr_facts[0].redundant

    def test_overflowing_delay_recorded(self):
        enc = encode_function(parse_function(STRAIGHT), _cfg())
        enc.fn.block("entry").instrs.append(
            Instr("setlr", imm=(5, 42, "int")))
        a = analyze_last_reg(enc.fn, enc.config)
        assert len(a.delay_overflows) == 1
        assert a.delay_overflows[0].delay == 42


class TestSetlrElim:
    def test_removes_injected_redundant(self):
        enc = encode_function(parse_function(STRAIGHT), _cfg())
        enc.fn.block("entry").instrs.insert(
            1, Instr("setlr", imm=(2, 0, "int")))
        before = sum(1 for i in enc.fn.instructions() if i.op == "setlr")
        res = eliminate_redundant_setlr(enc)
        after = sum(1 for i in enc.fn.instructions() if i.op == "setlr")
        assert res.n_removed_redundant == 1
        assert after == before - 1
        verify_encoding(enc)

    def test_removes_chained_dead_then_redundant(self):
        # dead setlr writes 2; a later setlr re-writing 2 looks redundant
        # only while the dead one exists — the pass must not delete both
        # in one sweep without re-proving
        enc = encode_function(parse_function(STRAIGHT), _cfg())
        entry = enc.fn.block("entry")
        entry.instrs.append(Instr("setlr", imm=(5, 0, "int")))
        entry.instrs.append(Instr("setlr", imm=(5, 0, "int")))
        res = eliminate_redundant_setlr(enc)
        assert res.n_removed == 2
        verify_encoding(enc)

    def test_n_setlr_accounting(self):
        fn = get_workload("crc32").function()
        prog = run_setup(fn, "remapping", remap_restarts=5,
                         setlr_elim=False)
        enc = prog.encoded
        before = enc.n_setlr
        res = eliminate_redundant_setlr(enc)
        assert res.n_removed >= 1  # the acceptance-criterion workload
        assert enc.n_setlr == before - res.n_removed
        assert enc.n_setlr == sum(
            1 for i in enc.fn.instructions() if i.op == "setlr")
        verify_encoding(enc)

    def test_cycles_never_worse(self):
        wl = get_workload("crc32")
        prog = run_setup(wl.function(), "remapping", remap_restarts=5,
                         setlr_elim=False)
        enc = prog.encoded
        _, before = simulate(enc.fn, wl.default_args)
        res = eliminate_redundant_setlr(enc)
        assert res.n_removed >= 1
        verify_encoding(enc)
        _, after = simulate(enc.fn, wl.default_args)
        assert after.cycles <= before.cycles
        assert after.setlr_executed <= before.setlr_executed

    def test_idempotent(self):
        fn = get_workload("crc32").function()
        prog = run_setup(fn, "remapping", remap_restarts=5,
                         setlr_elim=False)
        enc = prog.encoded
        eliminate_redundant_setlr(enc)
        res2 = eliminate_redundant_setlr(enc)
        assert res2.n_removed == 0
        verify_encoding(enc)
