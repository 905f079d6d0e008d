"""Golden figure-grid outputs, pinned against a committed data file.

``test_hash_seed_determinism`` only compares two hash seeds with each
other; this test compares the grid with a recorded result.  For every
MiBench kernel x the IRC- and SSA-based setups it checks
``(n_spills, n_setlr, cycles, sha256(listing)[:16])`` at 50 remap
restarts against ``tests/data/golden_mibench.json``.  The ILP setups
(``ospill``, ``coalesce``) are left out so that a scipy/HiGHS version
difference cannot fail it.

A change that is meant to alter allocation output regenerates the file
with ``PYTHONPATH=src python tests/test_golden_outputs.py`` and says so.
"""

import hashlib
import json
from pathlib import Path

from repro.analysis.profile import block_frequencies_from_counts
from repro.ir.printer import format_function
from repro.machine import interpret_or_derive, record_reference_run
from repro.machine.lowend import LowEndTimingModel
from repro.machine.spec import LOWEND
from repro.regalloc import run_setup
from repro.workloads.mibench import MIBENCH

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_mibench.json"
SETUPS = ("baseline", "remapping", "select", "ssa_spill")
RESTARTS = 50


def grid_rows():
    """One ``[kernel, setup, n_spills, n_setlr, cycles, digest]`` row per
    MiBench kernel x ``SETUPS``, in that order."""
    timing = LowEndTimingModel(LOWEND)
    rows = []
    for w in MIBENCH:
        fn = w.function()
        rec = record_reference_run(fn, w.default_args)
        freq = block_frequencies_from_counts(fn, rec.block_instr_counts)
        for setup in SETUPS:
            p = run_setup(fn, setup, freq=freq, remap_restarts=RESTARTS)
            res = interpret_or_derive(p.final_fn, w.default_args, rec)
            cycles = timing.time(res.columnar).cycles
            digest = hashlib.sha256(
                format_function(p.final_fn).encode()).hexdigest()[:16]
            rows.append([w.name, setup, p.n_spills, p.n_setlr, cycles,
                         digest])
    return rows


def test_grid_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    assert golden["restarts"] == RESTARTS
    assert grid_rows() == golden["rows"]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    body = ",\n".join(" " + json.dumps(row) for row in grid_rows())
    GOLDEN.write_text('{"restarts": %d, "rows": [\n%s\n]}\n'
                      % (RESTARTS, body))
