"""Classic backward liveness analysis.

Produces block-level ``live_in``/``live_out`` sets and, on demand,
per-instruction live-out sets keyed by instruction ``uid``.

The fixed-point iteration is an instance of the generic worklist
framework (:mod:`repro.analysis.dataflow`): a backward may-analysis with
set-union join and the textbook ``use ∪ (out − def)`` transfer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Set

from repro.analysis.dataflow import DataflowProblem, solve, union_join
from repro.ir.function import Function
from repro.ir.instr import Reg

__all__ = ["LivenessInfo", "compute_liveness"]


@dataclass
class LivenessInfo:
    """Result of :func:`compute_liveness`."""

    live_in: Dict[str, FrozenSet[Reg]]
    live_out: Dict[str, FrozenSet[Reg]]
    use: Dict[str, FrozenSet[Reg]]
    defs: Dict[str, FrozenSet[Reg]]
    instr_live_out: Dict[int, FrozenSet[Reg]]
    instr_live_in: Dict[int, FrozenSet[Reg]]

    def max_pressure(self, cls: str = "int") -> int:
        """Maximum number of simultaneously live registers (MaxLive)."""
        best = 0
        for live in self.instr_live_in.values():
            best = max(best, sum(1 for r in live if r.cls == cls))
        for live in self.instr_live_out.values():
            best = max(best, sum(1 for r in live if r.cls == cls))
        return best


def _block_use_def(block) -> tuple:
    use: Set[Reg] = set()
    defs: Set[Reg] = set()
    for instr in block.instrs:
        for r in instr.uses():
            if r not in defs:
                use.add(r)
        defs.update(instr.defs())
    return frozenset(use), frozenset(defs)


def compute_liveness(fn: Function) -> LivenessInfo:
    """Iterative backward may-liveness to a fixed point.

    Results are memoized on the function's structural fingerprint (see
    :mod:`repro.analysis.cache`): the pipeline asks for liveness of the
    same function at several stages, and sweeps re-analyse identical
    copies.  The returned object is shared between hits — treat it as
    read-only (every set in it is frozen).
    """
    from repro.analysis.cache import fingerprint_function, memoize_analysis

    return memoize_analysis(("liveness", fingerprint_function(fn)),
                            lambda: _compute_liveness(fn))


def _compute_liveness(fn: Function) -> LivenessInfo:
    use: Dict[str, FrozenSet[Reg]] = {}
    defs: Dict[str, FrozenSet[Reg]] = {}
    for b in fn.blocks:
        use[b.name], defs[b.name] = _block_use_def(b)

    problem: DataflowProblem[FrozenSet[Reg]] = DataflowProblem(
        direction="backward",
        boundary=frozenset(),
        init=frozenset(),
        join=union_join,
        transfer=lambda block, out: use[block.name] | (out - defs[block.name]),
    )
    result = solve(fn, problem)
    live_in = result.in_facts
    live_out = result.out_facts

    instr_live_out: Dict[int, FrozenSet[Reg]] = {}
    instr_live_in: Dict[int, FrozenSet[Reg]] = {}
    for b in fn.blocks:
        live: Set[Reg] = set(live_out[b.name])
        after = frozenset(live)
        for instr in reversed(b.instrs):
            instr_live_out[instr.uid] = after
            live.difference_update(instr.defs())
            live.update(instr.uses())
            # live into this instruction is live out of the one before it:
            # one frozen set serves both keys
            after = frozenset(live)
            instr_live_in[instr.uid] = after

    return LivenessInfo(live_in, live_out, use, defs, instr_live_out, instr_live_in)
