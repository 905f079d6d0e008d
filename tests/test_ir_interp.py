"""Interpreter semantics tests."""

import pytest

from repro.ir import (BasicBlock, Function, FunctionBuilder, Instr,
                      InterpError, Interpreter, parse_function, vreg)


def run_expr(body, ret="v9", args=(), params=""):
    """Helper: run a straight-line snippet and return the result."""
    text = f"func f({params}):\nentry:\n"
    for line in body:
        text += f"    {line}\n"
    text += f"    ret {ret}\n"
    return Interpreter().run(parse_function(text), args).return_value


class TestALU:
    @pytest.mark.parametrize("op, a, b, expected", [
        ("add", 2, 3, 5),
        ("sub", 2, 3, -1),
        ("mul", -4, 3, -12),
        ("div", 7, 2, 3),
        ("div", -7, 2, -3),          # C-style truncation
        ("rem", 7, 2, 1),
        ("rem", -7, 2, -1),
        ("and", 0b1100, 0b1010, 0b1000),
        ("or", 0b1100, 0b1010, 0b1110),
        ("xor", 0b1100, 0b1010, 0b0110),
        ("shl", 1, 4, 16),
        ("shr", 16, 4, 1),
        ("slt", 1, 2, 1),
        ("slt", 2, 1, 0),
        ("sge", 2, 1, 1),
    ])
    def test_binary_ops(self, op, a, b, expected):
        got = run_expr([f"li v1, {a}", f"li v2, {b}", f"{op} v9, v1, v2"])
        assert got == expected

    def test_immediate_forms(self):
        assert run_expr(["li v1, 10", "addi v9, v1, 5"]) == 15
        assert run_expr(["li v1, 10", "muli v9, v1, 3"]) == 30
        assert run_expr(["li v1, 10", "slti v9, v1, 11"]) == 1

    def test_overflow_wraps_to_32_bits(self):
        got = run_expr(["li v1, 2147483647", "addi v9, v1, 1"])
        assert got == -(1 << 31)

    def test_shr_is_logical(self):
        got = run_expr(["li v1, -1", "shri v9, v1, 28"])
        assert got == 0xF

    def test_division_by_zero(self):
        with pytest.raises(InterpError, match="division by zero"):
            run_expr(["li v1, 1", "li v2, 0", "div v9, v1, v2"])


class TestControlFlow:
    def test_sum_loop(self, sum_fn):
        assert Interpreter().run(sum_fn, (10,)).return_value == 45

    def test_zero_trip_count_still_runs_body_once(self, sum_fn):
        # do-while shape: body executes before the test
        assert Interpreter().run(sum_fn, (0,)).return_value == 0

    def test_diamond_both_arms(self, diamond_fn):
        assert Interpreter().run(diamond_fn, (3,)).return_value == 8
        assert Interpreter().run(diamond_fn, (50,)).return_value == 300

    def test_branch_kinds(self):
        fn = parse_function("""
func f(v0):
entry:
    li v1, 5
    bge v0, v1, high
low:
    li v2, 0
    br out
high:
    li v2, 1
out:
    ret v2
""")
        assert Interpreter().run(fn, (4,)).return_value == 0
        assert Interpreter().run(fn, (5,)).return_value == 1

    def test_step_limit(self):
        fn = parse_function("""
func f(v0):
entry:
    li v1, 0
loop:
    addi v1, v1, 1
    br loop
""")
        with pytest.raises(InterpError, match="exceeded"):
            Interpreter(max_steps=100).run(fn, (0,))


class TestMemory:
    def test_store_then_load(self):
        got = run_expr([
            "li v1, 1000", "li v2, 77", "st v2, [v1+4]", "ld v9, [v1+4]",
        ])
        assert got == 77

    def test_uninitialised_memory_reads_zero(self):
        assert run_expr(["li v1, 5", "ld v9, [v1+0]"]) == 0

    def test_memory_dict_shared(self, sum_fn):
        mem = {}
        fn = parse_function(
            "func f(v0):\nentry:\n    li v1, 9\n    st v0, [v1+0]\n    ret v0\n"
        )
        Interpreter().run(fn, (42,), memory=mem)
        assert mem[9] == 42

    def test_slots_disjoint_from_memory(self):
        got = run_expr([
            "li v1, 0", "li v2, 1", "st v2, [v1+0]",
            "li v3, 55", "stslot v3, slot0", "ldslot v9, slot0",
        ])
        assert got == 55


class TestErrorsAndTrace:
    def test_undefined_register_read(self):
        fn = parse_function("func f():\nentry:\n    ret v5\n")
        with pytest.raises(InterpError, match="undefined register"):
            Interpreter().run(fn, ())

    def test_wrong_arity(self, sum_fn):
        with pytest.raises(InterpError, match="expects 1 args"):
            Interpreter().run(sum_fn, ())

    def test_mid_block_branch_is_outside_the_fast_engine(self):
        """A branch that is not the last instruction of its block (which
        ``validate`` rejects) makes the not-taken tail reachable.  The
        fast engine refuses the function; the reference engine runs it."""
        one, two = vreg(1), vreg(2)
        fn = Function("f", [
            BasicBlock("entry", [
                Instr("li", dst=one, imm=0),
                Instr("li", dst=two, imm=1),
                Instr("beq", srcs=(one, two), label="done"),
                Instr("li", dst=one, imm=5),
                Instr("ret", srcs=(one,)),
            ]),
            BasicBlock("done", [Instr("ret", srcs=(two,))]),
        ])
        for record in (True, False):
            with pytest.raises(InterpError, match="beq not at block end"):
                Interpreter(record_trace=record).run(fn, ())
        ref = Interpreter(engine="reference").run(fn, ())
        assert (ref.return_value, ref.steps) == (5, 5)

    def test_trace_records_static_indices(self, sum_fn):
        r = Interpreter().run(sum_fn, (2,))
        assert r.columnar.static_index[:3].tolist() == [0, 1, 2]
        ref = Interpreter(engine="reference").run(sum_fn, (2,))
        assert [e.static_index for e in ref.trace[:3]] == [0, 1, 2]

    def test_trace_memory_addresses(self):
        fn = parse_function(
            "func f():\nentry:\n    li v1, 256\n    ld v2, [v1+4]\n    ret v2\n"
        )
        r = Interpreter().run(fn, ())
        assert r.columnar.mem_addr[1] == 260
        ref = Interpreter(engine="reference").run(fn, ())
        assert ref.trace[1].mem_addr == 260

    def test_trace_disabled(self, sum_fn):
        r = Interpreter(record_trace=False).run(sum_fn, (5,))
        assert r.trace == [] and r.columnar is None
        assert r.return_value == 10

    def test_dynamic_counts(self, sum_fn):
        r = Interpreter().run(sum_fn, (4,))
        assert r.count("add") == 4
        assert r.count("blt") == 4

    def test_setlr_is_a_dynamic_noop(self):
        fn = parse_function(
            "func f():\nentry:\n    li v1, 3\n    setlr 7, 1\n    ret v1\n"
        )
        r = Interpreter().run(fn, ())
        assert r.return_value == 3
        assert r.count("setlr") == 1

    def test_call_zeroes_defs(self):
        fb = FunctionBuilder("f")
        a = fb.vreg()
        fb.block("entry")
        fb.li(a, 9)
        fb.call("ext", defs=(a,))
        fb.ret(a)
        assert Interpreter().run(fb.build(), ()).return_value == 0
