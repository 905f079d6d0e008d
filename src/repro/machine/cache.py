"""Set-associative cache simulation with LRU replacement.

Two equivalent implementations:

* :class:`Cache` — the stateful per-access simulator.  Each set is an
  order-preserving dict keyed by tag (insertion order = LRU order, most
  recent last), so a hit is O(1) instead of the O(assoc) ``list.remove``
  of the original list-based sets.
* :func:`access_hit_flags` — batch form: the per-access hit/miss flags
  for a whole address sequence at once.  It groups accesses by set with
  one stable argsort, collapses consecutive same-line accesses (always
  hits, no LRU state change), and resolves the rest with exact closed
  forms for 1- and 2-way caches; higher associativities fall back to a
  per-set walk of the compressed stream.  It agrees with :class:`Cache`
  bit-for-bit on every access.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

__all__ = ["Cache", "CacheStats", "access_hit_flags"]


@dataclass
class CacheStats:
    accesses: int = 0
    misses: int = 0

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


def _check_geometry(size: int, line_size: int, assoc: int) -> int:
    if size % (line_size * assoc) != 0:
        raise ValueError("size must be a multiple of line_size * assoc")
    if line_size & (line_size - 1):
        raise ValueError("line_size must be a power of two")
    return size // (line_size * assoc)


class Cache:
    """A byte-addressed set-associative cache.

    Args:
        size: total capacity in bytes.
        line_size: bytes per line (power of two).
        assoc: ways per set.
    """

    def __init__(self, size: int, line_size: int = 32, assoc: int = 2) -> None:
        self.n_sets = _check_geometry(size, line_size, assoc)
        self.size = size
        self.line_size = line_size
        self.assoc = assoc
        # each set maps tag -> None in LRU order, most recent last
        self._sets: Dict[int, Dict[int, None]] = {}
        self.stats = CacheStats()

    def access(self, addr: int) -> bool:
        """Access one byte address; returns True on hit."""
        self.stats.accesses += 1
        line = addr // self.line_size
        idx = line % self.n_sets
        tag = line // self.n_sets
        ways = self._sets.setdefault(idx, {})
        if tag in ways:
            del ways[tag]
            ways[tag] = None
            return True
        self.stats.misses += 1
        ways[tag] = None
        if len(ways) > self.assoc:
            del ways[next(iter(ways))]
        return False

    def reset(self) -> None:
        """Invalidate all lines and clear statistics."""
        self._sets.clear()
        self.stats = CacheStats()


def access_hit_flags(addrs: Sequence[int], size: int, line_size: int = 32,
                     assoc: int = 2) -> np.ndarray:
    """Hit/miss flag per access for a whole address sequence.

    Exactly equivalent to feeding ``addrs`` through ``Cache.access`` one
    at a time; the result is a boolean array computed with vector passes.
    """
    n_sets = _check_geometry(size, line_size, assoc)
    addrs = np.asarray(addrs, dtype=np.int64)
    n = addrs.size
    if n == 0:
        return np.zeros(0, dtype=bool)
    lines = addrs // line_size
    sets = lines % n_sets
    tags = lines // n_sets

    # group each set's accesses contiguously, preserving time order
    order = np.argsort(sets, kind="stable")
    s_set = sets[order]
    s_tag = tags[order]

    # a repeat of the immediately preceding access in the same set is a
    # guaranteed hit and leaves the LRU order unchanged — drop it before
    # resolving replacement
    dup = np.zeros(n, dtype=bool)
    dup[1:] = (s_set[1:] == s_set[:-1]) & (s_tag[1:] == s_tag[:-1])
    keep = ~dup
    c_set = s_set[keep]
    c_tag = s_tag[keep]
    m = c_set.size

    c_hits = np.zeros(m, dtype=bool)
    if assoc == 1:
        # consecutive compressed tags within a set are distinct, so every
        # compressed access evicts the single resident line: all misses
        pass
    elif assoc == 2:
        # with distinct consecutive tags, a 2-way LRU set holds exactly
        # {tag[i], tag[i-1]} after access i, so access i hits iff it
        # matches tag[i-2] (within the same set run)
        if m > 2:
            c_hits[2:] = (
                (c_set[2:] == c_set[1:-1])
                & (c_set[1:-1] == c_set[:-2])
                & (c_tag[2:] == c_tag[:-2])
            )
    else:
        # no closed form past 2 ways; replay the compressed stream (it is
        # usually far shorter than the raw one)
        lru: Dict[int, Dict[int, None]] = {}
        flags: List[bool] = []
        for s, t in zip(c_set.tolist(), c_tag.tolist()):
            ways = lru.setdefault(s, {})
            if t in ways:
                del ways[t]
                ways[t] = None
                flags.append(True)
            else:
                ways[t] = None
                if len(ways) > assoc:
                    del ways[next(iter(ways))]
                flags.append(False)
        c_hits = np.asarray(flags, dtype=bool)

    hits_sorted = np.empty(n, dtype=bool)
    hits_sorted[keep] = c_hits
    hits_sorted[dup] = True
    hits = np.empty(n, dtype=bool)
    hits[order] = hits_sorted
    return hits
