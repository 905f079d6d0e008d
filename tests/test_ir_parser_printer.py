"""Round-trip and error tests for the assembly parser and printer."""

import pytest

from repro.ir import (
    Instr,
    ParseError,
    format_function,
    format_instr,
    parse_function,
    phys,
    vreg,
)


ROUNDTRIP = """
func demo(v0):
entry:
    li v1, 42
    mov v2, v1
    add v3, v1, v2
    addi v4, v3, -7
    ld v5, [v4+8]
    st v5, [v4+-4]
    ldslot v6, slot3
    stslot v6, slot3
    blt v5, v6, entry
middle:
    shri v7, v5, 2
    setlr 5, 1
    br last
last:
    ret v7
"""


class TestRoundTrip:
    def test_parse_then_print_then_parse(self):
        fn1 = parse_function(ROUNDTRIP)
        text = format_function(fn1)
        fn2 = parse_function(text)
        assert format_function(fn2) == text

    def test_params_preserved(self):
        fn = parse_function(ROUNDTRIP)
        assert fn.params == (vreg(0),)

    def test_physical_registers(self):
        fn = parse_function("func f():\nentry:\n    add r1, r2, r3\n    ret r1\n")
        assert phys(1) in fn.registers()

    def test_register_class_suffix(self):
        fn = parse_function(
            "func f():\nentry:\n    mov v1.float, v2.float\n    ret v1.float\n"
        )
        regs = fn.registers()
        assert any(r.cls == "float" for r in regs)

    def test_dotted_block_label(self):
        fn = parse_function(
            "func f():\nentry:\n    br a.b.crit\na.b.crit:\n    ret v0\n"
        )
        assert [b.name for b in fn.blocks] == ["entry", "a.b.crit"]

    def test_ssa_spill_split_edge_round_trips(self, sum_fn):
        """An ssa_spill allocation with a split critical edge prints,
        parses back and computes the same value."""
        from repro.ir import Interpreter
        from repro.regalloc import ssa_spill_allocate

        allocated = ssa_spill_allocate(sum_fn, 8).fn
        assert any(b.name.endswith(".crit") for b in allocated.blocks)
        parsed = parse_function(format_function(allocated))
        assert format_function(parsed) == format_function(allocated)
        for n in (0, 1, 7):
            assert (Interpreter().run(parsed, (n,)).return_value
                    == Interpreter().run(allocated, (n,)).return_value
                    == sum(range(n)))

    def test_comments_ignored(self):
        fn = parse_function(
            "func f():  # header\nentry:\n    ret v0  # done\n"
        )
        assert fn.num_instructions() == 1


class TestPrinterForms:
    def test_setlr_with_delay(self):
        assert format_instr(Instr("setlr", imm=(5, 2, "int"))) == "setlr 5, 2"

    def test_setlr_no_delay(self):
        assert format_instr(Instr("setlr", imm=(5, 0, "int"))) == "setlr 5"

    def test_setlr_with_class(self):
        out = format_instr(Instr("setlr", imm=(5, 1, "float")))
        assert out == "setlr 5, 1, float"

    def test_negative_memory_offset(self):
        i = Instr("ld", dst=vreg(0), srcs=(vreg(1),), imm=-4)
        assert format_instr(i) == "ld v0, [v1+-4]"

    def test_call_format(self):
        i = Instr("call", label="g", call_uses=(vreg(1),), call_defs=(vreg(0),))
        assert "call g" in format_instr(i)


class TestParseErrors:
    @pytest.mark.parametrize("text, message", [
        ("entry:\n    nop\n", "before func header"),
        ("func f():\n    nop\n", "before first label"),
        ("func f():\nentry:\n    bogus v1\n", "unknown opcode"),
        ("func f():\nentry:\n    permi 1, 0\n",
         "line 3: unknown opcode 'permi'"),
        ("func f():\nentry:\n    add v1\n", "too few operands"),
        ("func f():\nentry:\n    ld v1, v2\n", "bad address"),
        ("func f():\nentry:\n    mov v1, 7\n", "expected register"),
        ("func f():\nentry:\n    ldslot v1, 5\n", "bad slot"),
        ("", "no func header"),
    ])
    def test_error_cases(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse_function(text)

    def test_malformed_function_rejected_by_validate(self):
        # parser runs validate(): unterminated final block
        with pytest.raises(ValueError, match="falls off"):
            parse_function("func f():\nentry:\n    nop\n")
