"""Ablation: exact MILP residence decisions vs the greedy fallback.

The paper's optimal-spill substrate uses CPLEX; ours uses HiGHS via scipy
with a spill-everywhere greedy fallback for instances past the ILP's size
cap.  The exact solver should never lose on the weighted load/store
objective.
"""

from conftest import show

from repro.experiments.reporting import Table, arith_mean
from repro.regalloc.optimal_spill import decide_residence
from repro.workloads import MIBENCH


def _objectives(use_ilp):
    out = []
    for w in MIBENCH[:8]:
        plan = decide_residence(w.function(), 8, use_ilp=use_ilp)
        out.append(plan.objective)
    return out


def test_ospill_solver_ablation(benchmark):
    ilp = benchmark(_objectives, True)
    greedy = _objectives(False)

    t = Table("Ablation: residence solver (weighted spill objective)",
              ["benchmark", "MILP", "greedy"])
    for w, a, b in zip(MIBENCH[:8], ilp, greedy):
        t.add_row(w.name, a, b)
    t.add_row("average", arith_mean(ilp), arith_mean(greedy))
    show(t)

    for a, b in zip(ilp, greedy):
        assert a <= b + 1e-6, "the exact solver lost to the greedy fallback"
