"""Cache and low-end timing-model tests."""

from pathlib import Path

import pytest

from repro.ir import Interpreter, parse_function
from repro.machine import Cache, LOWEND, LowEndTimingModel, simulate
from repro.machine.spec import LowEndConfig


class TestCache:
    def test_first_access_misses(self):
        c = Cache(1024, line_size=32, assoc=2)
        assert not c.access(0)
        assert c.access(0)

    def test_same_line_hits(self):
        c = Cache(1024, line_size=32, assoc=2)
        c.access(0)
        assert c.access(31)
        assert not c.access(32)

    def test_lru_eviction(self):
        c = Cache(64, line_size=32, assoc=1)  # 2 sets, direct mapped
        c.access(0)
        c.access(64)  # same set (line 2 % 2 == 0), evicts line 0
        assert not c.access(0)

    def test_lru_order_respected(self):
        c = Cache(128, line_size=32, assoc=2)  # 2 sets, 2 ways
        c.access(0)      # set 0
        c.access(128)    # set 0
        c.access(0)      # refresh line 0
        c.access(256)    # set 0: evicts 128, not 0
        assert c.access(0)
        assert not c.access(128)

    def test_stats(self):
        c = Cache(1024)
        c.access(0)
        c.access(0)
        assert c.stats.accesses == 2
        assert c.stats.misses == 1
        assert c.stats.hits == 1
        assert c.stats.miss_rate == 0.5

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            Cache(100, line_size=32, assoc=2)
        with pytest.raises(ValueError):
            Cache(1024, line_size=33)

    def test_reset(self):
        c = Cache(1024)
        c.access(0)
        c.reset()
        assert c.stats.accesses == 0
        assert not c.access(0)


class TestTimingModel:
    def run_cycles(self, text, args=()):
        fn = parse_function(text)
        result, report = simulate(fn, args)
        return result, report

    def test_every_instruction_costs_a_cycle(self):
        _, rep = self.run_cycles(
            "func f():\nentry:\n    li r1, 1\n    li r2, 2\n    add r3, r1, r2\n    ret r3\n"
        )
        assert rep.instructions == 4
        assert rep.cycles >= 4

    def test_multiply_extra_latency(self):
        _, plain = self.run_cycles(
            "func f():\nentry:\n    li r1, 3\n    add r2, r1, r1\n    ret r2\n"
        )
        _, mul = self.run_cycles(
            "func f():\nentry:\n    li r1, 3\n    mul r2, r1, r1\n    ret r2\n"
        )
        assert mul.cycles == plain.cycles + LOWEND.extra_latency["mul"]

    def test_load_pays_bubble_and_dcache(self):
        _, rep = self.run_cycles(
            "func f():\nentry:\n    li r1, 64\n    ld r2, [r1+0]\n    ret r2\n"
        )
        assert rep.dcache_accesses == 1
        assert rep.dcache_misses == 1

    def test_spill_ops_hit_dcache(self):
        _, rep = self.run_cycles(
            "func f():\nentry:\n    li r1, 5\n    stslot r1, slot0\n"
            "    ldslot r2, slot0\n    ret r2\n"
        )
        assert rep.dcache_accesses == 2

    def test_taken_branch_penalty(self):
        _, rep = self.run_cycles("""
func f(r0):
entry:
    li r1, 0
loop:
    addi r1, r1, 1
    blt r1, r0, loop
exit:
    ret r1
""", (3,))
        assert rep.branch_penalties == 2  # taken twice, falls through once

    def test_setlr_occupies_one_slot_only(self):
        _, with_setlr = self.run_cycles(
            "func f():\nentry:\n    li r1, 1\n    setlr 4, 1\n    ret r1\n"
        )
        _, without = self.run_cycles(
            "func f():\nentry:\n    li r1, 1\n    ret r1\n"
        )
        assert with_setlr.setlr_executed == 1
        # exactly one extra issue cycle (plus possibly an icache effect)
        assert with_setlr.cycles - without.cycles <= 1 + LOWEND.cache_miss_penalty

    def test_cpi_reported(self):
        _, rep = self.run_cycles(
            "func f():\nentry:\n    li r1, 1\n    ret r1\n"
        )
        assert rep.cpi == rep.cycles / rep.instructions

    def test_custom_config(self):
        cfg = LowEndConfig(cache_miss_penalty=100)
        fn = parse_function(
            "func f():\nentry:\n    li r1, 64\n    ld r2, [r1+0]\n    ret r2\n"
        )
        result = Interpreter().run(fn, ())
        rep_big = LowEndTimingModel(cfg).time(result.columnar)
        rep_small = LowEndTimingModel(LOWEND).time(result.columnar)
        assert rep_big.cycles > rep_small.cycles


class TestTable1:
    def test_table1_rows_render(self):
        rows = dict(LOWEND.rows())
        assert rows["Architected registers"] == "8"
        assert rows["Physical registers"] == "16"
        assert "16 bits" in rows["Instruction width"]

    def test_repro_table1_matches_results_md(self, capsys):
        # the committed Table 1 block is what `repro table1` prints, row
        # for row and column width for column width
        from repro.cli import main

        lines = (Path(__file__).parents[1] / "RESULTS.md").read_text() \
            .splitlines()
        start = lines.index("Table 1: low-end machine configuration")
        end = lines.index("", start)
        assert main(["table1"]) == 0
        assert capsys.readouterr().out == "\n".join(lines[start:end]) + "\n"
