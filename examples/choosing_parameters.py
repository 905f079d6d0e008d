"""Choosing RegN (Section 12).

How many registers should the differential space expose?
`run_regn_sweep` answers it per ISA: spills fall and repairs rise with
RegN, and the cycle optimum sits where the marginal spill is worth one
repair.

Run:  python examples/choosing_parameters.py
"""

from repro.experiments import run_regn_sweep
from repro.workloads import MIBENCH


def regn_sweep() -> None:
    print("=== choosing RegN: the sweep behind the paper's 12 ===")
    sweep = run_regn_sweep(MIBENCH[:8], remap_restarts=8)
    print(sweep.table().render())
    print(f"\ncycle-optimal RegN on this subset: {sweep.best_reg_n()}")
    print("spills keep falling with RegN, but each extra register thins")
    print("the encodable neighbourhood, and past the sweet spot the added")
    print("set_last_reg instructions cost more than the spills they chase.")


if __name__ == "__main__":
    regn_sweep()
