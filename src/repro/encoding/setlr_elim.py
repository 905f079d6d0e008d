"""Post-encoding elimination of provably unnecessary ``set_last_reg``.

The encoder plans join repairs block by block in layout order, and a
repair committed early can be made unnecessary by decisions taken later
(a predecessor-end repair further down the layout changes that
predecessor's exit value; a back edge adopts the entry value the repair
was defending against).  Every surviving ``set_last_reg`` costs a
fetch/decode slot per execution in the timing model, so deleting the
provably unnecessary ones is pure profit — the paper's overhead numbers
(Figure 12) count exactly these instructions.

Two removable classes, both proved by :func:`repro.encoding.
static_verifier.analyze_last_reg`:

* **redundant** — at its fire point ``last_reg[cls]`` already holds the
  written value on *every* reaching path.  The write is a semantic no-op,
  so any subset of redundant repairs can be deleted simultaneously: the
  decode state trajectory is bit-for-bit unchanged.
* **dead** — the written value is never read (no field of the class is
  differentially decoded) before being overwritten or the function ends.
  Simultaneous deletion is safe too: removing one dead write extends the
  previous value's lifetime only across a region the analysis already
  proved read-free.

The two classes must not be deleted in the *same* sweep: a repair can be
redundant only because a dead repair upstream wrote its value.  The pass
therefore alternates — delete all dead, re-analyse, delete all redundant,
re-analyse — until neither class is inhabited.  Callers prove the
result: ``run_setup`` decode-replays every encoding it returns, after
this pass.  Deleting a ``set_last_reg``
never perturbs other delay counters: counters tick on decoded register
fields only, never on ``set_last_reg`` instructions themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set

from repro.encoding.encoder import EncodedFunction
from repro.encoding.static_verifier import SetlrFact, analyze_last_reg

__all__ = ["EliminationResult", "eliminate_redundant_setlr"]


@dataclass
class EliminationResult:
    """Outcome of :func:`eliminate_redundant_setlr` on one encoding."""

    enc: EncodedFunction
    n_removed_redundant: int = 0
    n_removed_dead: int = 0
    rounds: int = 0
    #: the facts of the deleted instructions, for reporting
    removed: List[SetlrFact] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.removed is None:
            self.removed = []

    @property
    def n_removed(self) -> int:
        return self.n_removed_redundant + self.n_removed_dead


def _delete_setlrs(enc: EncodedFunction, uids: Set[int]) -> None:
    for block in enc.fn.blocks:
        block.instrs = [
            i for i in block.instrs
            if not (i.op == "setlr" and i.uid in uids)
        ]


def eliminate_redundant_setlr(enc: EncodedFunction) -> EliminationResult:
    """Delete every provably redundant or dead ``set_last_reg`` in ``enc``.

    Mutates ``enc`` in place (the function, and the ``n_setlr_removed``
    counter that :attr:`EncodedFunction.n_setlr` subtracts) and returns
    the statistics.
    """
    result = EliminationResult(enc=enc)
    while True:
        result.rounds += 1
        analysis = analyze_last_reg(enc.fn, enc.config)
        # dead first: a repair may be redundant only because a dead
        # repair upstream wrote its value, so the two classes must be
        # re-proved between sweeps
        dead = [f for f in analysis.setlr_facts if f.dead]
        if dead:
            _delete_setlrs(enc, {f.uid for f in dead})
            result.n_removed_dead += len(dead)
            result.removed.extend(dead)
            continue
        redundant = [f for f in analysis.setlr_facts if f.redundant]
        if redundant:
            _delete_setlrs(enc, {f.uid for f in redundant})
            result.n_removed_redundant += len(redundant)
            result.removed.extend(redundant)
            continue
        break

    enc.n_setlr_removed += result.n_removed
    return result
