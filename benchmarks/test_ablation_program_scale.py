"""Ablation: program scale and the remapping-vs-select separation.

Section 6 argues remapping is weak on large programs because its
register-level adjacency graph is "very dense ... and restrictive", while
select works on live ranges.  Our kernels are small, so the two tie (see
EXPERIMENTS.md's Figure 12 note); composing each kernel with synthetic
phases into a whole program recreates the tension and the gap should open
in select's favour — the paper's separation mechanism, demonstrated.
"""

from conftest import show

from repro.experiments.reporting import Table, arith_mean
from repro.fuzz import FuzzConfig, generate_fuzz_function
from repro.regalloc import run_setup
from repro.workloads import MIBENCH
from repro.workloads.compose import concat_functions


_PHASE = FuzzConfig(n_regions=3, base_values=7, ops_per_block=6)


def _gap(composite):
    """Average remapping-minus-select setlr fraction (positive = select
    wins)."""
    gaps = []
    for wi, w in enumerate(MIBENCH[:6]):
        fn = w.function()
        if composite:
            fn = concat_functions(w.name, [
                fn,
                generate_fuzz_function(7000 + 2 * wi, _PHASE),
                generate_fuzz_function(7001 + 2 * wi, _PHASE),
            ])
        remap = run_setup(fn, "remapping", remap_restarts=10).setlr_fraction
        select = run_setup(fn, "select", remap_restarts=10).setlr_fraction
        gaps.append(remap - select)
    return gaps


def test_program_scale_ablation(benchmark):
    kernel_gaps = _gap(False)
    composite_gaps = benchmark.pedantic(_gap, args=(True,),
                                        rounds=1, iterations=1)

    t = Table("Ablation: program scale (remapping cost minus select cost, "
              "percentage points)",
              ["scale", "avg gap"])
    t.add_row("isolated kernels", 100 * arith_mean(kernel_gaps))
    t.add_row("composite programs", 100 * arith_mean(composite_gaps))
    show(t)

    # at whole-program scale select must not lose to remapping on average
    assert arith_mean(composite_gaps) >= arith_mean(kernel_gaps) - 0.02
