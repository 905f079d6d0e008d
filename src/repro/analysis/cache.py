"""Structural memoization for CFG analyses.

The pipeline recomputes the same analyses many times: every setup of every
sweep point rebuilds liveness for the same input function, the remapper
re-estimates block frequencies the selector already estimated, and the
encoder candidates share one adjacency graph shape.  Functions are mutable
and freely copied (``Function.copy`` preserves instruction ``uid``\\ s), so
caching by object identity would be both unsafe (in-place mutation) and
ineffective (copies miss).  Instead every entry is keyed by a **structural
fingerprint** — a hashable tuple of the blocks, instructions (including
``uid``, which analysis results reference) and parameters.

Correctness rule: a cache hit must be indistinguishable from a recompute.

* The fingerprint covers everything the analysis reads, so in-place
  mutation changes the key and simply misses.
* Results that callers mutate are copied on the way out — the adjacency
  graph (differential coalescing calls ``merge``), the interference graph
  (it merges there too, and iterated coalescing adds edges) and the
  frequency dict.  Liveness is shared; its contract is read-only (all
  sets are frozen).

The cache is per-process (each pool worker warms its own) and bounded LRU.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Hashable, Tuple, TypeVar

from repro.ir.function import Function

__all__ = [
    "fingerprint_function",
    "fingerprint_cfg",
    "fingerprint_digest",
    "memoize_analysis",
    "peek_analysis",
    "MISSING",
    "clear_analysis_cache",
    "analysis_cache_stats",
    "set_analysis_cache_enabled",
]

V = TypeVar("V")

_MAX_ENTRIES = 256
_cache: "OrderedDict[Hashable, object]" = OrderedDict()
_stats: Dict[str, int] = {"hits": 0, "misses": 0}
_enabled = True


def fingerprint_function(fn: Function) -> Tuple:
    """Structural identity of a function.

    Includes instruction ``uid``\\ s because analysis results
    (``instr_live_out`` etc.) are keyed by them: two functions that differ
    only in uids must not share a liveness entry.
    """
    return (
        fn.name,
        fn.params,
        tuple(
            (
                b.name,
                tuple(
                    (i.uid, i.op, i.dst, i.srcs, i.imm, i.label,
                     i.call_uses, i.call_defs)
                    for i in b.instrs
                ),
            )
            for b in fn.blocks
        ),
    )


def fingerprint_digest(fn: Function) -> str:
    """Hex content digest of a function for durable, cross-process caches.

    Unlike :func:`fingerprint_function` this *excludes* instruction
    ``uid``\\ s: uids are process-local allocation order, so two builds of
    the same workload (or two parses of the same text) would never share
    a digest, defeating a store that outlives the process.  Everything an
    allocation result can depend on — names, params, block layout,
    opcodes, registers, immediates, labels, call effects — is digested
    via ``repr``, never a salted ``hash()``, so the digest is stable
    across processes and Python versions.
    """
    import hashlib

    canon = (
        fn.name,
        fn.params,
        tuple(
            (
                b.name,
                tuple(
                    (i.op, i.dst, i.srcs, i.imm, i.label,
                     i.call_uses, i.call_defs)
                    for i in b.instrs
                ),
            )
            for b in fn.blocks
        ),
    )
    return hashlib.sha256(repr(canon).encode()).hexdigest()


def fingerprint_cfg(fn: Function) -> Tuple:
    """Identity of the control-flow shape only (block layout + terminators).

    Enough for analyses that never look at non-branch instructions, such
    as loop nesting / static frequency estimation — register renaming and
    straight-line edits keep hitting the same entry.
    """
    shape = []
    for b in fn.blocks:
        term = b.terminator()
        shape.append((b.name, (term.op, term.label) if term else None))
    return tuple(shape)


def memoize_analysis(key: Hashable, compute: Callable[[], V]) -> V:
    """Return the cached value for ``key``, computing it on a miss.

    Unhashable keys (exotic ``imm`` payloads) silently bypass the cache —
    correctness first, speed second.
    """
    if not _enabled:
        return compute()
    try:
        hit = _cache[key]
    except TypeError:
        return compute()
    except KeyError:
        _stats["misses"] += 1
        value = compute()
        _cache[key] = value
        if len(_cache) > _MAX_ENTRIES:
            _cache.popitem(last=False)
        return value
    _cache.move_to_end(key)
    _stats["hits"] += 1
    return hit  # type: ignore[return-value]


#: sentinel returned by :func:`peek_analysis` for absent entries (``None``
#: is a legitimate cached value)
MISSING = object()


def peek_analysis(key: Hashable):
    """The cached value for ``key`` without computing on a miss.

    Returns :data:`MISSING` when the entry is absent, the key is
    unhashable, or the cache is disabled.  Does not count as a hit and
    does not refresh LRU order — this is how :func:`repro.analysis.
    interference.build_interference` tells the canonical memoized
    liveness from a caller's own.
    """
    if not _enabled:
        return MISSING
    try:
        return _cache[key]
    except (KeyError, TypeError):
        return MISSING


def clear_analysis_cache() -> None:
    """Drop every entry and reset the hit/miss counters."""
    _cache.clear()
    _stats["hits"] = _stats["misses"] = 0


def analysis_cache_stats() -> Dict[str, int]:
    """A snapshot of ``{"hits": ..., "misses": ..., "entries": ...}``."""
    return {"hits": _stats["hits"], "misses": _stats["misses"],
            "entries": len(_cache)}


def set_analysis_cache_enabled(enabled: bool) -> bool:
    """Toggle the cache (used by tests and A/B timing); returns the old
    setting.  Disabling does not clear existing entries."""
    global _enabled
    old, _enabled = _enabled, bool(enabled)
    return old
