"""Profile-guided block frequencies.

Section 4 of the paper: "profile information could be incorporated to
improve the cost estimation.  Different adjacent access pairs have different
execution frequencies."  The paper's own evaluation uses static estimates
(and attributes irregular per-benchmark results to that); this module
provides the profile-guided alternative by running the program once through
the interpreter and counting how often each basic block executes.

Block names survive every pass in this library (spilling, splitting,
remapping, encoding), so one profile of the original function weights all
downstream decisions.  The fast interpreter engine reports per-block
executed-instruction counts directly (``ExecutionResult.
block_instr_counts``), so profiling records no trace at all;
:func:`block_frequencies_from_counts` turns such counts — from a profile
run or from a recorded run the trace-reuse layer already paid for — into
frequencies.
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

from repro.ir.function import Function
from repro.ir.interp import Interpreter

__all__ = ["profile_block_frequencies", "block_frequencies_from_counts"]


def block_frequencies_from_counts(fn: Function,
                                  block_instr_counts: Mapping[str, int]
                                  ) -> Dict[str, float]:
    """Per-block frequencies from executed-instruction counts.

    ``block_instr_counts`` maps block name to the number of instructions
    dynamically executed in that block (missing blocks count as zero).
    The frequency is that count divided by the block's length, normalised
    so the entry block has frequency 1.
    """
    counts: Dict[str, float] = {
        b.name: float(block_instr_counts.get(b.name, 0)) for b in fn.blocks
    }
    sizes = {b.name: max(1, len(b.instrs)) for b in fn.blocks}
    freqs = {name: counts[name] / sizes[name] for name in counts}
    entry_freq = max(freqs.get(fn.entry.name, 1.0), 1.0)
    return {name: max(f / entry_freq, 0.0) for name, f in freqs.items()}


def profile_block_frequencies(fn: Function, args: Tuple[int, ...] = (),
                              max_steps: int = 2_000_000) -> Dict[str, float]:
    """Run ``fn`` on ``args`` and return per-block execution counts.

    The count is the number of *instructions* executed per block divided by
    the block's length — i.e. how many times the block ran — normalised so
    the entry block has frequency 1.
    """
    result = Interpreter(max_steps=max_steps, record_trace=False).run(fn, args)
    return block_frequencies_from_counts(fn, result.block_instr_counts)
