"""Trace reuse across register-allocation setups.

The low-end experiments time the same program many times: every setup
(baseline, remapping, select, ...) re-interprets its allocated function
even though allocation only renames registers, inserts spills/moves and
``setlr`` — transformations that preserve the dynamic block path and
every ``ld``/``st`` effective address.  Those two recordings are exactly
what a :class:`~repro.ir.trace.ColumnarTrace` is assembled from, so one
interpretation of the *input* function yields, via
:func:`~repro.ir.trace.derive_trace`, the full dynamic trace of every
allocated variant — including the variant's own spill and ``setlr``
instructions, which are static per block.

``record_reference_run`` interprets a function once on the fast engine,
memoized on the analysis-cache structural fingerprint (so repeated
experiment passes over the same input hit the cache), and
``derive_execution`` replays that recording against an allocated
function.  ``record_and_profile`` is the preamble every grid task and
compile runs: that one recording, plus the profile block frequencies
read from its counts.  Derivation is guarded structurally (same
blocks, terminators and per-block ``ld``/``st`` sequences — see
``derive_trace``) and falls back to ``None`` whenever the guard fails;
``interpret_or_derive`` then interprets from scratch.  Every result
these functions return carries a columnar trace.

A derived result carries the recorded run's return value, so it says
nothing about the allocated function's semantics; ``run_setup`` proves
those before any trace is derived (:mod:`repro.regalloc.checker`).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Tuple

from repro.analysis.cache import fingerprint_function
from repro.analysis.profile import block_frequencies_from_counts
from repro.ir.function import Function
from repro.ir.interp import ExecutionResult, Interpreter
from repro.ir.trace import derive_trace

__all__ = ["record_reference_run", "record_and_profile",
           "derive_execution", "interpret_or_derive", "clear_recorded_runs"]

_MAX_RECORDED = 32
_recorded: "OrderedDict[Tuple, ExecutionResult]" = OrderedDict()


def clear_recorded_runs() -> None:
    """Drop all memoized recordings (tests)."""
    _recorded.clear()


def record_reference_run(fn: Function, args: Tuple[int, ...] = (),
                         max_steps: int = 2_000_000) -> ExecutionResult:
    """Interpret ``fn`` once with columnar recording, memoized."""
    key = (fingerprint_function(fn), tuple(args), max_steps)
    hit = _recorded.get(key)
    if hit is not None:
        _recorded.move_to_end(key)
        return hit
    result = Interpreter(max_steps=max_steps).run(fn, args)
    _recorded[key] = result
    while len(_recorded) > _MAX_RECORDED:
        _recorded.popitem(last=False)
    return result


def record_and_profile(fn: Function, args: Tuple[int, ...],
                       profile: bool = True
                       ) -> Tuple[ExecutionResult, Optional[Dict[str, float]]]:
    """``(recorded, freq)`` for ``fn`` on ``args``.

    ``recorded`` is :func:`record_reference_run`'s memoized recording,
    which serves every allocated variant's trace through
    :func:`interpret_or_derive`.  ``freq`` is ``None`` without
    ``profile``; otherwise the profile block frequencies, read from the
    recording's counts.
    """
    recorded = record_reference_run(fn, args)
    if not profile:
        return recorded, None
    return recorded, block_frequencies_from_counts(
        fn, recorded.block_instr_counts)


def derive_execution(recorded: ExecutionResult,
                     new_fn: Function) -> Optional[ExecutionResult]:
    """Replay a recorded run against an allocated variant of its function.

    Returns an :class:`ExecutionResult` whose columnar trace is assembled
    from ``new_fn``'s static code and the recording's block path / data
    addresses, or ``None`` when the structural guard rejects ``new_fn``.
    The result carries no register file or object trace — it exists to be
    timed.
    """
    ct = derive_trace(recorded.columnar, new_fn)
    if ct is None:
        return None
    codec = ct.source
    bic: Dict[str, int] = {name: 0 for name in codec.block_names}
    for bid in ct.block_path.tolist():
        bic[codec.block_names[bid]] += len(codec.prefix_ops[bid])
    return ExecutionResult(
        return_value=recorded.return_value,
        steps=len(ct),
        columnar=ct,
        block_instr_counts=bic,
    )


def interpret_or_derive(fn: Function, args: Tuple[int, ...],
                        recorded: Optional[ExecutionResult],
                        max_steps: int = 2_000_000) -> ExecutionResult:
    """An :class:`ExecutionResult` for ``fn``: derived from ``recorded``
    when the structural guard allows it, freshly interpreted otherwise.
    Either way ``result.columnar`` is the trace to time."""
    if recorded is not None:
        derived = derive_execution(recorded, fn)
        if derived is not None:
            return derived
    return Interpreter(max_steps=max_steps).run(fn, args)
