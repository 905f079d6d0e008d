"""Wire codec tests: round-trip identity, compactness, malformed input.

The codec ships functions between fleet processes, so the property that
matters is *behavioural* identity: a decoded function must be
structurally equal to the original, lint as cleanly, allocate to the
same programs, and simulate to the same ``CycleReport`` — uids aside,
which are deliberately re-minted on decode.
"""

import pickle

import pytest
from hypothesis import given, settings

from repro.ir import parse_function, vreg
from repro.ir.instr import Instr, Reg
from repro.ir.function import BasicBlock, Function
from repro.ir.wire import (WireError, from_wire, functions_structurally_equal,
                           to_wire, wire_stats)
from repro.workloads import MIBENCH

from tests.conftest import fuzz_programs, synth_programs


class TestRoundTrip:
    @pytest.mark.parametrize("workload", [w.name for w in MIBENCH])
    def test_mibench_structural_identity(self, workload):
        fn = next(w for w in MIBENCH if w.name == workload).function()
        back = from_wire(to_wire(fn))
        assert functions_structurally_equal(fn, back)
        assert back.name == fn.name and back.params == fn.params

    def test_fresh_uids_by_default(self, sum_fn):
        back = from_wire(to_wire(sum_fn))
        original = [i.uid for b in sum_fn.blocks for i in b.instrs]
        decoded = [i.uid for b in back.blocks for i in b.instrs]
        assert set(original).isdisjoint(decoded)

    def test_preserve_uids(self, sum_fn):
        back = from_wire(to_wire(sum_fn), preserve_uids=True)
        assert [i.uid for b in sum_fn.blocks for i in b.instrs] == \
            [i.uid for b in back.blocks for i in b.instrs]

    def test_calls_and_setlr_survive(self):
        fn = Function("f", [BasicBlock("entry", [
            Instr("li", dst=vreg(1), imm=3),
            Instr("call", label="helper", srcs=(vreg(0),),
                  call_uses=(vreg(0), vreg(1)),
                  call_defs=(vreg(2),)),
            Instr("setlr", imm=(5, 2)),               # short payload
            Instr("setlr", imm=(4, 1, "int")),        # full payload
            Instr("add", dst=vreg(3), srcs=(vreg(2), vreg(1))),
            Instr("ret", srcs=(vreg(3),)),
        ])], params=(vreg(0),))
        back = from_wire(to_wire(fn))
        assert functions_structurally_equal(fn, back)
        decoded = back.blocks[0].instrs
        assert decoded[2].imm == (5, 2)
        assert decoded[3].imm == (4, 1, "int")
        assert decoded[1].call_uses and decoded[1].call_defs
        assert decoded[1].label == "helper"

    @pytest.mark.parametrize("setup", ["remapping", "select"])
    def test_allocated_function_round_trips(self, setup):
        """Post-pipeline functions — physical registers, spill code,
        setlr repairs with class payloads — are wire-clean too."""
        from repro.regalloc.pipeline import run_setup

        fn = MIBENCH[0].function()
        final = run_setup(fn, setup, base_k=8, reg_n=12, diff_n=8,
                          remap_restarts=2, use_ilp=False).final_fn
        assert functions_structurally_equal(final, from_wire(to_wire(final)))

    def test_physical_and_classed_registers(self):
        fn = Function("g", [BasicBlock("entry", [
            Instr("li", dst=Reg(3, virtual=False, cls="f"), imm=1),
            Instr("add", dst=Reg(1, virtual=False),
                  srcs=(Reg(3, virtual=False, cls="f"),
                        Reg(3, virtual=False, cls="f"))),
            Instr("ret", srcs=(Reg(1, virtual=False),)),
        ])], params=(Reg(7, virtual=False, cls="f"),))
        back = from_wire(to_wire(fn))
        assert functions_structurally_equal(fn, back)
        assert back.params[0].cls == "f" and not back.params[0].virtual

    @settings(max_examples=40, deadline=None)
    @given(fn=synth_programs())
    def test_property_synth_round_trip(self, fn):
        assert functions_structurally_equal(fn, from_wire(to_wire(fn)))

    @settings(max_examples=40, deadline=None)
    @given(fn=fuzz_programs(calls=True))
    def test_property_fuzz_round_trip(self, fn):
        assert functions_structurally_equal(fn, from_wire(to_wire(fn)))

    @settings(max_examples=15, deadline=None)
    @given(fn=fuzz_programs())
    def test_property_decoded_fn_lints_clean(self, fn):
        from repro.lint import lint_function

        assert not lint_function(from_wire(to_wire(fn))).errors

    @settings(max_examples=8, deadline=None)
    @given(fn=fuzz_programs())
    def test_property_identical_cycle_reports(self, fn):
        """Allocating + simulating the decoded function must reproduce
        the original's CycleReport bit-for-bit (uid independence of the
        whole pipeline)."""
        from repro.ir.interp import Interpreter
        from repro.machine.lowend import LowEndTimingModel
        from repro.machine.spec import LOWEND
        from repro.regalloc.pipeline import run_setup

        model = LowEndTimingModel(LOWEND)
        args = tuple(range(1, len(fn.params) + 1))
        reports = []
        for variant in (fn, from_wire(to_wire(fn))):
            prog = run_setup(variant, "select", base_k=8, reg_n=12,
                             diff_n=8, remap_restarts=2, use_ilp=False)
            result = Interpreter().run(prog.final_fn, args)
            reports.append(model.time(result.trace))
        assert reports[0] == reports[1]


class TestStructuralEquality:
    def test_detects_differences(self, sum_fn, diamond_fn):
        assert functions_structurally_equal(sum_fn, sum_fn)
        assert not functions_structurally_equal(sum_fn, diamond_fn)

    def test_ignores_uids(self, sum_fn):
        clone = from_wire(to_wire(sum_fn))
        assert functions_structurally_equal(sum_fn, clone)

    def test_imm_difference_detected(self):
        a = parse_function("func f():\nentry:\n    li v0, 1\n    ret v0\n")
        b = parse_function("func f():\nentry:\n    li v0, 2\n    ret v0\n")
        assert not functions_structurally_equal(a, b)


class TestCompactness:
    def test_wire_smaller_than_pickle(self):
        """The codec's reason to exist: flat columns beat the pickled
        object graph on every kernel in the suite, and by at least 1.5x
        over the first eight kernels together (3.25x measured: 6941 vs
        22556 bytes)."""
        stats = [wire_stats(w.function()) for w in MIBENCH]
        for w, st in zip(MIBENCH, stats):
            assert st["wire_bytes"] < st["pickle_bytes"], w.name
        wire = sum(st["wire_bytes"] for st in stats[:8])
        pickled = sum(st["pickle_bytes"] for st in stats[:8])
        assert pickled >= 1.5 * wire, (wire, pickled)

    def test_stats_fields(self, sum_fn):
        stats = wire_stats(sum_fn)
        assert stats["instructions"] == sum_fn.num_instructions()
        assert stats["wire_bytes"] == len(to_wire(sum_fn))
        assert stats["pickle_bytes"] == len(
            pickle.dumps(sum_fn, protocol=pickle.HIGHEST_PROTOCOL))


class TestMalformedPayloads:
    def test_bad_magic(self):
        with pytest.raises(WireError, match="magic"):
            from_wire(b"NOPE" + bytes(64))

    def test_bad_version(self, sum_fn):
        blob = bytearray(to_wire(sum_fn))
        blob[4] = 0xEE
        with pytest.raises(WireError, match="version"):
            from_wire(bytes(blob))

    def test_truncation(self, sum_fn):
        blob = to_wire(sum_fn)
        for cut in (3, 7, len(blob) // 2, len(blob) - 1):
            with pytest.raises(WireError):
                from_wire(blob[:cut])

    def test_trailing_bytes(self, sum_fn):
        with pytest.raises(WireError, match="trailing"):
            from_wire(to_wire(sum_fn) + b"\x00")

    def test_single_byte_corruption_never_escapes(self, sum_fn):
        """Flip every byte in turn: decode must either raise WireError
        or return a *well-formed* function (structural validity is
        enforced at construction) — never crash with anything else.
        Corruption of pure data values (immediates, uids — the latter
        re-minted on decode anyway) may survive; structural corruption
        must fail loudly."""
        blob = to_wire(sum_fn)
        loud = 0
        for i in range(len(blob)):
            corrupted = bytearray(blob)
            corrupted[i] ^= 0xFF
            try:
                fn = from_wire(bytes(corrupted))
            except WireError:
                loud += 1
                continue
            assert fn.num_instructions() > 0
        # most positions are structural (headers, counts, codes): the
        # bulk of corruptions must be detected, not absorbed
        assert loud > len(blob) // 2

    def test_unencodable_immediate(self):
        fn = Function("h", [BasicBlock("entry", [
            Instr("li", dst=vreg(0), imm=1),
            Instr("ret", srcs=(vreg(0),)),
        ])])
        fn.blocks[0].instrs[0].imm = "not-an-int"
        with pytest.raises(WireError, match="immediate"):
            to_wire(fn)

    def test_oversized_register_id(self):
        fn = Function("h", [BasicBlock("entry", [
            Instr("li", dst=Reg(1 << 60), imm=1),
            Instr("ret", srcs=(Reg(1 << 60),)),
        ])])
        with pytest.raises(WireError, match="register id"):
            to_wire(fn)
