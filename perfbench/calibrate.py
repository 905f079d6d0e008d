"""Host-speed calibration.

The shared host this benchmark runs on changes speed by 20-40% in spells
lasting from seconds to minutes, and every timing moves with it.  A
frozen reference kernel — pure Python shaped like allocator work:
interference-graph construction over live ranges, simplify/select
colouring with spill choice — is timed between ops, and the busy share
of every op time is scaled by ``REFERENCE_S`` over the kernel's time
measured next to it.  Times are thereby reported at a fixed reference
speed of the host.

The kernel is part of the benchmark, not of the program: a change to the
program does not change it, so a faster program reads faster.  On a
`lowend` run whose pass times varied by 13% (coefficient of variation)
the scaled pass times varied by 1.5%.
"""

from __future__ import annotations

import bisect
import gc
import random
import statistics
import time
from typing import List, Tuple

__all__ = ["REFERENCE_S", "Calibrator", "kernel"]

#: the kernel's time on the reference host (2 vCPUs of a shared x86-64
#: host, Python 3.11) in a fast spell; it sets the scale of every time
REFERENCE_S = 0.0025

#: seconds of ops between two samples of a serial workload
INTERVAL_S = 0.05

#: samples nearest in time whose median scales an op
NEAREST = 8

#: samples taken together at a pass boundary, at set-up and after imports
BURST = 12


def _live_ranges(seed: int = 12345, n: int = 160,
                 horizon: int = 900) -> List[Tuple[int, int]]:
    rng = random.Random(seed)
    ranges = []
    for _ in range(n):
        a = rng.randrange(horizon)
        ranges.append((a, a + rng.randrange(1, 60)))
    return ranges


_RANGES = _live_ranges()


class _Node:
    __slots__ = ("adj", "color", "cost")

    def __init__(self, cost: float) -> None:
        self.adj, self.color, self.cost = set(), None, cost


def kernel(k: int = 8) -> int:
    """Colour the fixed interference graph with ``k`` colours; returns the
    number of nodes left uncoloured."""
    names = [f"v{i}" for i in range(len(_RANGES))]
    nodes = {n: _Node((b - a) * 1.5) for n, (a, b) in zip(names, _RANGES)}
    events = sorted([(a, 0, n) for n, (a, _) in zip(names, _RANGES)]
                    + [(b, 1, n) for n, (_, b) in zip(names, _RANGES)])
    live: set = set()
    for _, kind, n in events:
        if kind == 0:
            for m in live:
                nodes[n].adj.add(m)
                nodes[m].adj.add(n)
            live.add(n)
        else:
            live.discard(n)
    degree = {n: len(nodes[n].adj) for n in names}
    stack: List[str] = []
    removed: set = set()
    while len(stack) < len(names):
        cands = [n for n in names if n not in removed]
        low = [n for n in cands if degree[n] < k]
        pick = low[0] if low else min(
            cands, key=lambda n: nodes[n].cost / (degree[n] + 1))
        stack.append(pick)
        removed.add(pick)
        for m in nodes[pick].adj:
            degree[m] -= 1
    uncoloured = 0
    while stack:
        n = stack.pop()
        used = {nodes[m].color for m in nodes[n].adj}
        for c in range(k):
            if c not in used:
                nodes[n].color = c
                break
        else:
            uncoloured += 1
    return uncoloured


class Calibrator:
    """Kernel samples over a run, and the scale they give each moment.

    Samples are taken with the garbage collector paused, so that no
    collection of the program's heap lands in one.  Only one thread
    samples; on ``serve`` that is the main thread, between passes."""

    def __init__(self) -> None:
        self.starts: List[float] = []    # sample starts, ascending
        self.times: List[float] = []     # sample midpoints, ascending
        self.seconds: List[float] = []
        self._last = time.perf_counter()

    def sample(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            kernel()
            t1 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.starts.append(t0)
        self.times.append((t0 + t1) / 2)
        self.seconds.append(t1 - t0)
        self._last = t1
        return t1 - t0

    def burst(self, n: int = BURST) -> float:
        """``n`` samples back to back; returns the scale they give."""
        return REFERENCE_S / statistics.median(
            self.sample() for _ in range(n))

    def tick(self) -> None:
        """Sample if ``INTERVAL_S`` has passed since the last sample."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def scale(self, t: float) -> float:
        """``REFERENCE_S`` over the median of the ``NEAREST`` samples
        nearest to time ``t``."""
        i = bisect.bisect(self.times, t)
        lo = max(0, min(i - NEAREST // 2, len(self.times) - NEAREST))
        return REFERENCE_S / statistics.median(
            self.seconds[lo:lo + NEAREST])

    def span_seconds(self, start: float, end: float, cpu: float,
                     scaled: bool = True) -> float:
        """Seconds from ``start`` to ``end`` less the samples taken in
        between.  With ``scaled``, the busy share of that time — ``cpu``
        seconds of process CPU time over the same interval, less the
        samples' — is taken at the reference speed, each part between two
        samples at the speed of its own neighbourhood; the rest is
        waiting (a sleep, the service batcher's linger), which a slower
        host does not stretch, and stays as it is."""
        parts, a = [], start
        i = bisect.bisect_right(self.starts, start)
        while (i < len(self.starts)
               and self.starts[i] + self.seconds[i] <= end):
            parts.append((a, self.starts[i]))
            a = self.starts[i] + self.seconds[i]
            i += 1
        parts.append((a, end))
        wall = sum(b - a for a, b in parts)
        if not scaled or wall <= 0:
            return wall
        busy = min(1.0, max(0.0, cpu - (end - start - wall)) / wall)
        at_reference = sum((b - a) * self.scale((a + b) / 2)
                           for a, b in parts)
        return busy * at_reference + (1.0 - busy) * wall
