"""Allocation-as-a-service: a compile daemon with a durable cache.

Every other entry point (``repro bench``, ``repro lowend``, the
experiment grids) re-runs the full allocator pipeline in a fresh process;
the only reuse is the in-process analysis cache.  This package turns the
pipeline into a long-running service so identical requests — allocation
is expensive but deterministic — are served from a content-addressed
on-disk store without recompiling:

* :mod:`repro.service.protocol` — versioned JSON request/response
  schemas, canonical encoding, error envelopes reusing
  :mod:`repro.diagnostics` codes.
* :mod:`repro.service.store` — the content-addressed artifact cache
  (LRU size cap, corruption treated as a miss).
* :mod:`repro.service.server` — the daemon (``repro serve``): bounded
  queue, each miss dispatched to a :class:`repro.parallel.WorkerPool`
  worker as soon as one is free, per-request timeouts, 429
  backpressure, SIGTERM drain.
* :mod:`repro.service.client` — ``repro request`` and the python API.
* :mod:`repro.service.metrics` — counters and latency percentiles for
  ``/statsz`` and the shutdown telemetry snapshot.
* :mod:`repro.service.smoke` — the end-to-end smoke driver CI runs
  (``repro service-smoke``).

Contract: a served response is byte-identical to the direct in-process
run (:func:`repro.service.server.execute_request` through
:func:`repro.service.protocol.encode_message`), whether it came from a
cold compile or a warm store hit.
"""

from repro.service.client import ServiceClient, ServiceError, compile_local
from repro.service.protocol import (SCHEMA_VERSION, ProtocolError,
                                    build_compile_request, cache_key,
                                    decode_message, encode_message,
                                    error_response, normalize_request,
                                    ok_response)
from repro.service.server import ServiceServer, execute_request
from repro.service.store import ArtifactStore, default_store_root

__all__ = [
    "SCHEMA_VERSION",
    "ProtocolError",
    "build_compile_request",
    "cache_key",
    "decode_message",
    "encode_message",
    "error_response",
    "normalize_request",
    "ok_response",
    "ArtifactStore",
    "default_store_root",
    "ServiceServer",
    "execute_request",
    "ServiceClient",
    "ServiceError",
    "compile_local",
]
