"""Service counters, latency percentiles, and the telemetry snapshot.

One :class:`ServiceMetrics` instance lives on the server; handler threads
and compile threads update it under a single lock.  ``/statsz``
serves :meth:`ServiceMetrics.snapshot`, and on shutdown the same snapshot
persists to a JSON file (the CI smoke job uploads it as an artifact).

Latencies are kept in a bounded ring (the most recent
``max_latencies`` observations), so p50/p95 describe current behaviour
and memory stays flat under sustained traffic.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import Deque, Dict, Optional

__all__ = ["ServiceMetrics"]

_COUNTERS = (
    "requests",            # POSTs that reached the compile handler
    "responses_ok",        # 200s served (hit or compiled)
    "responses_error",     # error envelopes served
    "store_hits",          # served straight from the artifact store
    "store_misses",        # had to be compiled
    "batches",             # compiles submitted, one request each
    "batched_requests",    # requests those compiles carried (= batches)
    "rejected",            # 429s: queue_limit + jobs misses in flight
    "timeouts",            # per-request deadline expiries
    "drained_refusals",    # 503s while draining
    "worker_crashes",      # compiles lost to a broken pool (SVC13s)
    "store_write_errors",  # successes served uncached: the store put failed
)


class ServiceMetrics:
    """Thread-safe counters plus a latency ring."""

    def __init__(self, max_latencies: int = 4096) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {name: 0 for name in _COUNTERS}
        self._latencies: Deque[float] = deque(maxlen=max_latencies)
        self._max_queue_depth = 0
        self._started = time.time()

    def inc(self, counter: str, n: int = 1) -> None:
        """Bump one of the named counters."""
        with self._lock:
            self._counters[counter] += n

    def observe_latency(self, seconds: float) -> None:
        """Record one request's wall-clock service time."""
        with self._lock:
            self._latencies.append(seconds)

    def note_queue_depth(self, depth: int) -> None:
        """Track the high-water mark of the misses in flight."""
        with self._lock:
            self._max_queue_depth = max(self._max_queue_depth, depth)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    @staticmethod
    def _percentile(sorted_values, fraction: float) -> float:
        if not sorted_values:
            return 0.0
        index = min(len(sorted_values) - 1,
                    int(fraction * len(sorted_values)))
        return sorted_values[index]

    def snapshot(self, queue_depth: Optional[int] = None
                 ) -> Dict[str, object]:
        """A JSON-ready view of every counter and percentile."""
        with self._lock:
            counters = dict(self._counters)
            latencies = sorted(self._latencies)
            max_depth = self._max_queue_depth
            started = self._started
        hits = counters["store_hits"]
        misses = counters["store_misses"]
        looked_up = hits + misses
        snap: Dict[str, object] = dict(counters)
        snap.update({
            "hit_rate": hits / looked_up if looked_up else 0.0,
            "latency_count": len(latencies),
            "latency_p50_ms": 1e3 * self._percentile(latencies, 0.50),
            "latency_p95_ms": 1e3 * self._percentile(latencies, 0.95),
            "max_queue_depth": max_depth,
            "uptime_s": time.time() - started,
        })
        if queue_depth is not None:
            snap["queue_depth"] = queue_depth
        return snap

    def persist(self, path: str,
                extra: Optional[Dict[str, object]] = None) -> None:
        """Write the snapshot (plus ``extra``, e.g. store stats) to
        ``path`` — the shutdown telemetry artifact."""
        doc = self.snapshot()
        if extra:
            doc.update(extra)
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
