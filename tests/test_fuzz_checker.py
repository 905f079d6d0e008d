"""The symbolic allocation checker.

Positive direction: every bundled workload, pushed through every
allocator setup, must check clean — the checker may not cry wolf on the
real pipeline.  Negative direction: hand-corrupted allocations must be
caught with the right diagnostic (wrong-value, instr-mismatch,
undefined-read, shape-mismatch).  The heavy adversarial validation —
hundreds of machine-generated corruptions with dynamic arming — lives in
``test_fuzz_mutate.py``; the cases here pin down each diagnostic class
individually.
"""

import pytest

from repro.fuzz import FuzzConfig, generate_fuzz_function
from repro.ir import Instr, Reg, parse_function
from repro.regalloc.checker import check_allocation_semantics
from repro.regalloc.pipeline import SETUPS, run_setup
from repro.workloads import MIBENCH


def _simple_pair():
    """An original function and a faithful 'allocated' copy of it."""
    original = parse_function("""
func f(v0):
entry:
    li v1, 1
    add v2, v0, v1
    ret v2
""")
    return original, original.copy()


class TestPositive:
    @pytest.mark.parametrize("setup", SETUPS)
    @pytest.mark.parametrize("workload", [w.name for w in MIBENCH])
    def test_every_workload_every_setup(self, workload, setup):
        # run_setup proves its result, raising LintError on a failed proof
        fn = next(w for w in MIBENCH if w.name == workload).build()
        run_setup(fn, setup, remap_restarts=1, remap_seed=7)

    @pytest.mark.parametrize("setup", ["ospill", "coalesce"])
    @pytest.mark.parametrize("workload", [w.name for w in MIBENCH])
    def test_greedy_residence_fallback(self, workload, setup):
        # the spill-everywhere plan must write back values its successors
        # enter with in memory (dijkstra, sha, fft, ... failed before)
        fn = next(w for w in MIBENCH if w.name == workload).build()
        run_setup(fn, setup, remap_restarts=1, remap_seed=7, use_ilp=False)

    def test_identity_allocation_checks_clean(self):
        fn = generate_fuzz_function(5, FuzzConfig(
            n_regions=3, base_values=6, ops_per_block=6))
        assert check_allocation_semantics(fn, fn.copy()).ok


class TestNegative:
    def test_wrong_value_use(self):
        original, allocated = _simple_pair()
        add = allocated.blocks[0].instrs[1]
        # the add's first use must read v0; make it read v1 instead
        add.srcs = (add.srcs[1], add.srcs[1])
        report = check_allocation_semantics(original, allocated)
        assert not report.ok
        assert any(d.rule == "C002" for d in report.diagnostics)

    def test_instr_shape_change(self):
        original, allocated = _simple_pair()
        allocated.blocks[0].instrs[1].op = "sub"
        report = check_allocation_semantics(original, allocated)
        assert not report.ok
        assert any(d.rule == "C003" for d in report.diagnostics)

    def test_inserted_read_of_uninitialized_register(self):
        original, allocated = _simple_pair()
        # a spurious reload-style mov from a register no path defines
        ghost = Instr("mov", dst=Reg(9, virtual=True), srcs=(Reg(8, virtual=True),))
        allocated.blocks[0].instrs.insert(0, ghost)
        report = check_allocation_semantics(original, allocated)
        assert not report.ok
        assert any(d.rule == "C004" for d in report.diagnostics)

    def test_block_layout_mismatch(self):
        original, allocated = _simple_pair()
        allocated.blocks[0].name = "renamed"
        report = check_allocation_semantics(original, allocated)
        assert not report.ok
        assert any(d.rule == "C001" for d in report.diagnostics)

    def test_dropped_spill_store_chain(self):
        """A wrong value must be caught even through a store/reload chain."""
        original = parse_function("""
func g(v0):
entry:
    li v1, 7
    stslot v1, slot3
    li v2, 1
    ldslot v3, slot3
    add v4, v0, v3
    ret v4
""")
        allocated = original.copy()
        # retarget the store to the wrong slot: the reload now reads a
        # slot nothing initialized
        allocated.blocks[0].instrs[1].imm = 4
        report = check_allocation_semantics(original, allocated)
        assert not report.ok
        assert any(d.rule == "C003" for d in report.diagnostics)
