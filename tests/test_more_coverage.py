"""Final coverage batch: experiment options, cross-module consistency,
and negative paths."""

import pytest

from repro.encoding import EncodingConfig, encode_function, verify_encoding
from repro.encoding.verifier import EncodingError
from repro.ir import Instr, Interpreter, parse_function
from repro.regalloc import SETUPS, run_setup
from repro.workloads import MIBENCH
from repro.workloads.spec_loops import generate_loop_population


class TestExperimentOptions:
    def test_swp_custom_reg_ns(self):
        from repro.experiments import run_swp_experiment

        pop = generate_loop_population(n=10, seed=5)
        exp = run_swp_experiment(population=pop, reg_ns=(32, 48),
                                 remap_restarts=1)
        for loop in exp.loops:
            assert set(loop.cycles) == {32, 48}

    def test_swp_time_fraction_scales_overall(self):
        from repro.experiments import run_swp_experiment

        pop = generate_loop_population(n=30, seed=6)
        exp = run_swp_experiment(population=pop, remap_restarts=1)
        if not exp.optimized_loops():
            pytest.skip("tiny population without optimized loops")
        exp.loops_time_fraction = 0.8
        table_hi = exp.table2_speedup().render()
        exp.loops_time_fraction = 0.2
        table_lo = exp.table2_speedup().render()
        assert table_hi != table_lo

    @pytest.mark.parametrize("setup", ("ospill", "coalesce"))
    def test_greedy_solver_pipeline(self, setup):
        w = MIBENCH[1]  # crc32
        fn = w.function()
        ref = Interpreter().run(fn, w.default_args).return_value
        prog = run_setup(fn, setup, use_ilp=False)
        got = Interpreter().run(prog.final_fn, w.default_args).return_value
        assert got == ref


class TestCrossModuleConsistency:
    def test_binary_size_matches_codesize_fields(self):
        """The packed bitstream's field bits must equal field count x
        DiffW."""
        from repro.encoding import access_sequence, pack_function

        fn = parse_function("""
func f():
entry:
    add r1, r0, r1
    add r2, r1, r2
    ret r2
""")
        cfg_a = EncodingConfig(reg_n=12, diff_n=8)    # 3-bit fields
        cfg_b = EncodingConfig(reg_n=12, diff_n=12)   # 4-bit fields
        enc_a = encode_function(fn, cfg_a)
        enc_b = encode_function(fn, cfg_b)
        # this ascending straight-line function needs no repairs either way,
        # so the streams differ by exactly one bit per register field
        assert enc_a.n_setlr == 0 and enc_b.n_setlr == 0
        pa = pack_function(enc_a)
        pb = pack_function(enc_b)
        n_fields = len(access_sequence(fn))
        assert pb.n_bits - pa.n_bits == n_fields


class TestNegativePaths:
    def test_verifier_rejects_leaked_delay(self):
        fn = parse_function("func f():\nentry:\n    ret r0\n")
        enc = encode_function(fn, EncodingConfig(reg_n=8, diff_n=8))
        # a delay longer than the remaining fields leaks past the block
        enc.fn.entry.instrs.insert(0, Instr("setlr", imm=(3, 9, "int")))
        with pytest.raises(EncodingError, match="outlives"):
            verify_encoding(enc)

    def test_modulo_schedule_max_ii_respected(self):
        from repro.swp import Dep, LoopDDG, LoopOp, modulo_schedule
        from repro.swp.modulo import ScheduleError

        ddg = LoopDDG([LoopOp(0, latency=10)], [Dep(0, 0, distance=1)])
        with pytest.raises(ScheduleError):
            modulo_schedule(ddg, max_ii=5)
