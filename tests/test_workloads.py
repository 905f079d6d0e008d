"""Workload tests: MiBench kernels, the loop population, composition."""

import pytest

from repro.analysis import compute_liveness
from repro.ir import Interpreter
from repro.workloads import (
    MIBENCH,
    generate_loop_population,
    get_workload,
)
from repro.workloads.compose import concat_functions
from repro.workloads.spec_loops import generate_loop


class TestMiBenchKernels:
    @pytest.mark.parametrize("w", MIBENCH, ids=lambda w: w.name)
    def test_runs_and_is_deterministic(self, w):
        fn = w.function()
        a = Interpreter().run(fn, w.default_args).return_value
        b = Interpreter().run(w.function(), w.default_args).return_value
        assert a == b

    @pytest.mark.parametrize("w", MIBENCH, ids=lambda w: w.name)
    def test_validates(self, w):
        w.function().validate()

    def test_ten_plus_kernels(self):
        assert len(MIBENCH) >= 10

    def test_pressure_spectrum(self):
        """The suite must span the register-pressure range: some kernels fit
        the 8-register baseline, the crypto/DSP ones exceed it."""
        pressures = {
            w.name: compute_liveness(w.function()).max_pressure()
            for w in MIBENCH
        }
        assert pressures["sha"] > 8
        assert pressures["fft"] > 8
        assert pressures["blowfish"] > 8
        assert min(pressures.values()) <= 10

    def test_get_workload(self):
        assert get_workload("crc32").name == "crc32"
        with pytest.raises(KeyError):
            get_workload("doom")

    def test_scale_changes_work(self):
        w = get_workload("bitcount")
        small = Interpreter().run(w.function(), (4,)).steps
        large = Interpreter().run(w.function(), (16,)).steps
        assert large > small


class TestLoopPopulation:
    def test_population_deterministic(self):
        a = generate_loop_population(n=20, seed=3)
        b = generate_loop_population(n=20, seed=3)
        assert [s.name for s in a] == [s.name for s in b]
        assert [len(s.ddg.ops) for s in a] == [len(s.ddg.ops) for s in b]

    def test_big_fraction_exact(self):
        pop = generate_loop_population(n=100, seed=1)
        assert sum(s.big for s in pop) == 11

    def test_big_loops_are_bigger(self):
        pop = generate_loop_population(n=60, seed=2)
        bigs = [len(s.ddg.ops) for s in pop if s.big]
        smalls = [len(s.ddg.ops) for s in pop if not s.big]
        assert min(bigs) > max(smalls) / 2
        assert sum(bigs) / len(bigs) > 2 * sum(smalls) / len(smalls)

    def test_forced_class(self):
        assert generate_loop(9, big=True).big
        assert not generate_loop(9, big=False).big

    def test_loops_have_realistic_memory_mix(self):
        spec = generate_loop(10, big=True)
        kinds = [op.kind for op in spec.ddg.ops]
        assert kinds.count("mem_load") + kinds.count("mem_store") > 0


class TestCompose:
    def test_checksum_combines_parts(self, sum_fn):
        composite = concat_functions("two", [sum_fn, sum_fn])
        r = Interpreter().run(composite, (5,))
        part = Interpreter().run(sum_fn, (5,)).return_value
        assert r.return_value == ((0 * 31) ^ part) * 31 ^ part

    def test_parts_isolated(self, sum_fn, diamond_fn):
        composite = concat_functions("mix", [sum_fn, diamond_fn])
        composite.validate()
        r = Interpreter().run(composite, (5,))
        assert isinstance(r.return_value, int)

    def test_single_param_required(self):
        from repro.ir import FunctionBuilder
        fb = FunctionBuilder("noparam")
        v = fb.vreg()
        fb.block("entry")
        fb.li(v, 1)
        fb.ret(v)
        with pytest.raises(ValueError, match="exactly one"):
            concat_functions("bad", [fb.build()])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            concat_functions("empty", [])
