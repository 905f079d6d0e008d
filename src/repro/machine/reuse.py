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

``record_reference_run`` interprets a function once with columnar
recording, memoized on the analysis-cache structural fingerprint (so
repeated experiment passes over the same input hit the cache), and
``derive_execution`` replays that recording against an allocated
function.  Derivation is guarded structurally (same blocks, terminators
and per-block ``ld``/``st`` sequences — see ``derive_trace``) and falls
back to ``None`` whenever the guard fails; callers then interpret from
scratch.

One honest caveat: a derived result carries the recorded run's return
value, so the experiments' cross-setup checksum assertion is vacuous for
derived rows.  Fresh interpretations (and
``tests/test_trace_reuse.py``'s derived-equals-interpreted properties)
keep that contract covered.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Tuple

from repro.analysis.cache import fingerprint_function
from repro.ir.function import Function
from repro.ir.interp import ExecutionResult, Interpreter
from repro.ir.trace import derive_trace

__all__ = ["record_reference_run", "derive_execution",
           "interpret_or_derive", "clear_recorded_runs"]

_MAX_RECORDED = 32
_recorded: "OrderedDict[Tuple, ExecutionResult]" = OrderedDict()


def clear_recorded_runs() -> None:
    """Drop all memoized recordings (tests)."""
    _recorded.clear()


def record_reference_run(fn: Function, args: Tuple[int, ...] = (),
                         max_steps: int = 2_000_000
                         ) -> Optional[ExecutionResult]:
    """Interpret ``fn`` once with columnar recording, memoized.

    Returns ``None`` when no columnar trace is available (reference
    interpreter engine, or a function outside the fast engine's
    block-prefix model).
    """
    key = (fingerprint_function(fn), tuple(args), max_steps)
    hit = _recorded.get(key)
    if hit is not None:
        _recorded.move_to_end(key)
        return hit
    result = Interpreter(max_steps=max_steps,
                         trace_format="columnar").run(fn, args)
    if result.columnar is None:
        return None
    _recorded[key] = result
    while len(_recorded) > _MAX_RECORDED:
        _recorded.popitem(last=False)
    return result


def derive_execution(recorded: ExecutionResult,
                     new_fn: Function) -> Optional[ExecutionResult]:
    """Replay a recorded run against an allocated variant of its function.

    Returns an :class:`ExecutionResult` whose columnar trace is assembled
    from ``new_fn``'s static code and the recording's block path / data
    addresses, or ``None`` when the structural guard rejects ``new_fn``.
    The result carries no register file or object trace — it exists to be
    timed.
    """
    if recorded.columnar is None:
        return None
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

    Either way the result carries a trace the timing model accepts —
    ``result.columnar`` normally, ``result.trace`` if the interpreter had
    to fall back to its reference engine."""
    if recorded is not None:
        derived = derive_execution(recorded, fn)
        if derived is not None:
            return derived
    return Interpreter(max_steps=max_steps,
                       trace_format="columnar").run(fn, args)
