"""Section 5's portability claim: remapping follows *any* allocator.

"Differential remapping can follow any register allocator, therefore it is
a post-pass approach."  Two allocator families — graph coloring with
coalescing (IRC) and linear scan — each produce a different arbitrary
numbering; the same remapping pass must reduce the adjacency cost behind
both.
"""

from conftest import show

from repro.experiments.reporting import Table, arith_mean
from repro.regalloc import (
    differential_remap,
    iterated_allocate,
    linear_scan_allocate,
)
from repro.workloads import MIBENCH

ALLOCATORS = {
    "iterated coalescing": iterated_allocate,
    "linear scan": linear_scan_allocate,
}


def _gains(allocate):
    before, after = [], []
    for w in MIBENCH[:8]:
        allocated = allocate(w.function(), 12).fn
        remap = differential_remap(allocated, 12, 8, restarts=15)
        before.append(remap.cost_before)
        after.append(remap.cost_after)
    return before, after


def test_remap_follows_any_allocator(benchmark):
    results = {}
    for name, allocate in ALLOCATORS.items():
        results[name] = _gains(allocate)
    benchmark.pedantic(_gains, args=(linear_scan_allocate,),
                       rounds=1, iterations=1)

    t = Table("Ablation: remapping behind two allocator families "
              "(adjacency cost)",
              ["allocator", "before", "after", "reduction %"])
    for name, (before, after) in results.items():
        b, a = arith_mean(before), arith_mean(after)
        t.add_row(name, b, a, 100.0 * (1 - a / b) if b else 0.0)
    show(t)

    for name, (before, after) in results.items():
        assert sum(after) <= sum(before), f"remap regressed after {name}"
        assert sum(after) < 0.9 * sum(before), \
            f"remap gained almost nothing after {name}"
