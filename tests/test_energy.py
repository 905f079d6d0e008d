"""Energy-estimate tests for the low-end model."""

from repro.ir import Interpreter, parse_function
from repro.machine import LowEndTimingModel, simulate
from repro.machine.spec import LowEndConfig
from repro.regalloc import run_setup
from repro.workloads import get_workload


class TestEnergyModel:
    def run(self, text, args=(), config=None):
        fn = parse_function(text)
        result = Interpreter().run(fn, args)
        return LowEndTimingModel(config or LowEndConfig()).time(
            result.columnar)

    def test_energy_positive(self):
        rep = self.run("func f():\nentry:\n    li r1, 1\n    ret r1\n")
        assert rep.energy > 0

    def test_fetch_bytes_scale_with_width(self):
        text = "func f():\nentry:\n    li r1, 1\n    ret r1\n"
        narrow = self.run(text)
        wide = self.run(text, config=LowEndConfig(instr_bytes=4))
        assert wide.fetch_bytes == 2 * narrow.fetch_bytes
        assert wide.energy > narrow.energy

    def test_memory_traffic_costs_energy(self):
        plain = self.run(
            "func f():\nentry:\n    li r1, 64\n    addi r2, r1, 1\n    ret r2\n"
        )
        memory = self.run(
            "func f():\nentry:\n    li r1, 64\n    ld r2, [r1+0]\n    ret r2\n"
        )
        assert memory.energy > plain.energy

    def test_spill_heavy_setup_costs_more_energy(self):
        """The trade the paper banks on: spills (D-cache traffic) cost more
        energy than set_last_reg instructions (fetch-only)."""
        w = get_workload("sha")
        timing = LowEndTimingModel()
        energies = {}
        for setup in ("baseline", "select"):
            prog = run_setup(w.function(), setup)
            result = Interpreter().run(prog.final_fn, w.default_args)
            energies[setup] = timing.time(result.columnar).energy
        assert energies["select"] < energies["baseline"]

    def test_energy_knobs(self):
        cfg = LowEndConfig(energy_cache_miss=1000.0)
        rep = self.run(
            "func f():\nentry:\n    li r1, 64\n    ld r2, [r1+0]\n    ret r2\n",
            config=cfg,
        )
        base = self.run(
            "func f():\nentry:\n    li r1, 64\n    ld r2, [r1+0]\n    ret r2\n"
        )
        assert rep.energy > base.energy
