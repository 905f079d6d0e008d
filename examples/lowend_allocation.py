"""The Section 10.1 experiment on one benchmark, end to end.

Takes the SHA kernel (the paper's high-register-pressure MiBench program)
through all five experimental setups — baseline, differential remapping,
differential select, optimal spilling, differential coalesce — and prints
static spills, set_last_reg cost, code size, and simulated cycles on the
THUMB-like low-end machine.

Run:  python examples/lowend_allocation.py [benchmark]
"""

import sys

from repro.analysis.profile import profile_block_frequencies
from repro.experiments.reporting import Table
from repro.ir import Interpreter
from repro.machine import LowEndTimingModel
from repro.regalloc import SETUPS, run_setup
from repro.workloads import get_workload


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "sha"
    workload = get_workload(name)
    fn = workload.function()
    args = workload.default_args
    freq = profile_block_frequencies(fn, args)
    timing = LowEndTimingModel()

    print(f"benchmark: {name} — {workload.description}")
    print(f"           {fn.num_instructions()} instructions, "
          f"{len(fn.blocks)} blocks")
    print()

    table = Table(
        f"{name}: five setups (baseline/ospill use 8 registers, "
        "differential setups 12 with DiffN=8)",
        ["setup", "instrs", "spills", "setlr", "cycles", "speedup %"],
    )
    base_cycles = None
    checksum = None
    for setup in SETUPS:
        prog = run_setup(fn, setup, freq=freq)
        result = Interpreter().run(prog.final_fn, args)
        report = timing.time(result.columnar)
        if checksum is None:
            checksum = result.return_value
        assert result.return_value == checksum, "setups must agree!"
        if base_cycles is None:
            base_cycles = report.cycles
        speedup = 100.0 * (base_cycles / report.cycles - 1.0)
        table.add_row(setup, prog.n_instructions, prog.n_spills,
                      prog.n_setlr, report.cycles, speedup)
    print(table.render())
    print()
    print(f"all five setups computed the same checksum: {checksum}")


if __name__ == "__main__":
    main()
