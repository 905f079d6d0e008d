"""Coverage for remaining corners: VLIW spec, CLI experiment paths,
encoded-function stats, compose edge cases."""

import pytest

from repro.encoding import EncodingConfig, encode_function
from repro.ir import Instr, format_instr, parse_function, vreg
from repro.machine.spec import VLIW, VLIWConfig
from repro.regalloc import iterated_allocate
from repro.workloads.compose import concat_functions
from repro.workloads import get_workload


class TestVLIWSpec:
    def test_default_shape(self):
        assert VLIW.n_functional_units == 4
        assert VLIW.n_memory_ports == 2
        assert VLIW.architected_regs == 32
        assert VLIW.physical_regs == 64

    def test_latency_lookup(self):
        assert VLIW.latency("mul") == 3
        assert VLIW.latency("unknown") == 1

    def test_custom_config(self):
        cfg = VLIWConfig(n_functional_units=8)
        assert cfg.n_functional_units == 8
        assert cfg.n_memory_ports == 2


class TestPrinterGenericForms:
    def test_alu_imm_form(self):
        i = Instr("shli", dst=vreg(1), srcs=(vreg(2),), imm=3)
        assert format_instr(i) == "shli v1, v2, 3"

    def test_alu_reg_form(self):
        i = Instr("rem", dst=vreg(1), srcs=(vreg(2), vreg(3)))
        assert format_instr(i) == "rem v1, v2, v3"

    def test_nop(self):
        assert format_instr(Instr("nop")) == "nop"


class TestEncodedFunctionStats:
    def test_overhead_zero_for_direct(self):
        fn = parse_function("func f():\nentry:\n    ret r0\n")
        enc = encode_function(fn, EncodingConfig.direct(8))
        assert enc.n_setlr == 0
        assert enc.overhead_fraction == 0.0

    def test_inline_and_join_sum(self):
        fn = parse_function("""
func f():
entry:
    add r1, r0, r9
    beq r1, r0, b
a:
    add r2, r1, r2
    br j
b:
    add r5, r2, r5
j:
    add r1, r0, r1
    ret r1
""")
        enc = encode_function(fn, EncodingConfig(reg_n=12, diff_n=4))
        assert enc.n_setlr == enc.n_setlr_inline + enc.n_setlr_join
        assert enc.n_setlr > 0


class TestComposeEdges:
    def test_three_parts(self, sum_fn, diamond_fn):
        composite = concat_functions("trio", [sum_fn, diamond_fn, sum_fn])
        composite.validate()
        from repro.ir import Interpreter
        r = Interpreter().run(composite, (6,))
        assert isinstance(r.return_value, int)

    def test_allocatable_after_composition(self, sum_fn, diamond_fn):
        composite = concat_functions("duo", [sum_fn, diamond_fn])
        res = iterated_allocate(composite, 8)
        from repro.ir import Interpreter
        ref = Interpreter().run(composite, (5,)).return_value
        assert Interpreter().run(res.fn, (5,)).return_value == ref

    def test_composite_with_kernels(self):
        parts = [get_workload(n).function() for n in ("bitcount", "susan")]
        composite = concat_functions("pair", parts)
        from repro.ir import Interpreter
        a = Interpreter().run(composite, (8,)).return_value
        b = Interpreter().run(
            concat_functions("pair", [get_workload(n).function()
                                      for n in ("bitcount", "susan")]),
            (8,),
        ).return_value
        assert a == b


class TestCLISwpAndFigures(object):
    def test_fig_command_small(self, capsys, monkeypatch):
        # the CLI looks the experiment up at call time, so binding its
        # workload list here keeps the figure command to two kernels
        from functools import partial

        import repro.experiments as experiments
        from repro.cli import main
        from repro.workloads import MIBENCH
        monkeypatch.setattr(
            experiments, "run_lowend_experiment",
            partial(experiments.run_lowend_experiment,
                    workloads=MIBENCH[:2]))
        assert main(["fig11", "--restarts", "2"]) == 0
        out = capsys.readouterr().out
        assert "Figure 11" in out
        kernels = {w.name for w in MIBENCH}
        rows = [line.split()[0] for line in out.splitlines()
                if line.split() and line.split()[0] in kernels]
        assert rows == [w.name for w in MIBENCH[:2]]

    def test_fig12_runs_only_the_differential_setups(self, capsys,
                                                     monkeypatch):
        # Figure 12 reports remapping, select and coalesce; a baseline or
        # O-spill run would be computed and thrown away
        import repro.experiments.lowend as le
        from repro.cli import main

        ran = []

        def fake_workload(w, *, setups, **_):
            ran.extend(setups)
            return [le.BenchmarkRow(w.name, s, 10, 0, 1, 100)
                    for s in setups]

        monkeypatch.setattr(le, "_lowend_workload", fake_workload)
        assert main(["fig12", "--restarts", "1"]) == 0
        assert set(ran) == set(le.DIFFERENTIAL_SETUPS)
        assert "Figure 12" in capsys.readouterr().out

    def test_swp_command_small(self, capsys):
        from repro.cli import main
        assert main(["swp", "--loops", "12", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out and "Table 3" in out
