"""Encoder edge cases: empty-field blocks, unreachable code, deep joins."""

import pytest

from repro.encoding import EncodingConfig, encode_function, verify_encoding
from repro.fuzz import FuzzConfig, generate_fuzz_function
from repro.ir import Interpreter, parse_function
from repro.regalloc import iterated_allocate
from repro.regalloc.base import check_allocation


class TestEmptyFieldBlocks:
    def test_block_with_no_register_fields(self):
        # the middle block carries only a jump: last_reg passes through
        fn = parse_function("""
func f():
entry:
    add r1, r0, r1
    br hop
hop:
    br out
out:
    add r2, r1, r2
    ret r2
""")
        enc = encode_function(fn, EncodingConfig(reg_n=12, diff_n=8))
        verify_encoding(enc)

    def test_chain_of_empty_blocks_before_join(self):
        fn = parse_function("""
func f():
entry:
    add r1, r0, r1
    beq r1, r0, b
a:
    br join
b:
    add r2, r1, r2
join:
    add r3, r1, r3
    ret r3
""")
        for policy in ("block_entry", "pred_end"):
            enc = encode_function(
                fn, EncodingConfig(reg_n=12, diff_n=8, join_repair=policy)
            )
            verify_encoding(enc)


class TestDeepJoins:
    def test_nested_diamonds(self):
        fn = parse_function("""
func f(r0):
entry:
    li r1, 1
    beq r0, r1, l1
r1b:
    add r2, r0, r1
    beq r2, r1, l2
r2b:
    add r3, r2, r0
    br j2
l2:
    add r4, r1, r1
j2:
    add r5, r0, r1
    br out
l1:
    add r6, r1, r0
out:
    add r7, r1, r0
    ret r7
""")
        for policy in ("block_entry", "pred_end"):
            enc = encode_function(
                fn, EncodingConfig(reg_n=12, diff_n=8, join_repair=policy)
            )
            rep = verify_encoding(enc)
            assert rep.blocks == 7

    def test_tight_diff_budget_still_verifies(self):
        """DiffN=2 over 12 registers: almost everything needs repair,
        correctness must survive regardless."""
        config = FuzzConfig(n_regions=4, ops_per_block=6)
        fn = iterated_allocate(generate_fuzz_function(7, config), 12).fn
        enc = encode_function(fn, EncodingConfig(reg_n=12, diff_n=2))
        verify_encoding(enc)
        ref = Interpreter().run(
            iterated_allocate(generate_fuzz_function(7, config), 12).fn, (2,)
        ).return_value
        assert Interpreter().run(enc.fn, (2,)).return_value == ref


class TestCheckAllocation:
    def test_colored_fn_validation(self, sum_fn):
        res = iterated_allocate(sum_fn, 4)
        check_allocation(res, 4, colored_fn=sum_fn)

    def test_conflicting_coloring_rejected(self, sum_fn):
        from repro.regalloc.base import AllocationError
        from repro.ir import vreg
        res = iterated_allocate(sum_fn, 4)
        res.coloring[vreg(0)] = res.coloring[vreg(2)]  # n and acc collide
        with pytest.raises(AllocationError, match="both assigned"):
            check_allocation(res, 4, colored_fn=sum_fn)

    def test_out_of_budget_register_rejected(self, sum_fn):
        from repro.regalloc.base import AllocationError
        res = iterated_allocate(sum_fn, 4)
        with pytest.raises(AllocationError, match="exceeds"):
            check_allocation(res, 1)
