"""Warm the analysis memos for a batch of functions up front.

Every allocator starts from the same two analyses of its input: liveness
and the unweighted integer interference graph.  :func:`prewarm_corpus`
fills those two memos (:mod:`repro.analysis.cache`) so the allocators
that follow hit instead of computing them again.

The function lives in its own module because the benchmark's layer
tracer (``perfbench/layers.py``) wraps ``prewarm_corpus`` by attribute on
this module to time the ``analysis.prewarm`` layer;
:func:`repro.regalloc.pipeline.run_setup` looks the name up here at call
time so the wrapper sees every call.
"""

from __future__ import annotations

from typing import Sequence

from repro.ir.function import Function

__all__ = ["prewarm_corpus"]


def prewarm_corpus(fns: Sequence[Function]) -> int:
    """Warm the ``("liveness", fp)`` and ``("interference", "int", None,
    fp)`` memos of every function in ``fns``; returns how many."""
    from repro.analysis.cache import fingerprint_function, memoize_analysis
    from repro.analysis.interference import _build_interference_ref
    from repro.analysis.liveness import _compute_liveness

    for fn in fns:
        fp = fingerprint_function(fn)
        live = memoize_analysis(("liveness", fp), lambda: _compute_liveness(fn))
        memoize_analysis(("interference", "int", None, fp),
                         lambda: _build_interference_ref(fn, live, None, "int"))
    return len(fns)
