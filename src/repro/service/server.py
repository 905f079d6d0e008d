"""The compile daemon: batching HTTP server over the allocator pipeline.

Request lifecycle (``POST /``):

1. The handler thread decodes and normalises the request, builds the
   source function, and computes the content-address key.  Validation
   failures answer immediately with an error envelope.
2. The artifact store is consulted.  A hit is served straight from disk —
   the pipeline is never invoked — with ``X-Repro-Cache: hit``.
3. A miss enters the bounded queue.  A full queue answers 429 with
   ``Retry-After`` (backpressure); a draining server answers 503.
4. The single batch dispatcher thread collects queued requests for a
   short linger window and fans the whole micro-batch out in one
   :meth:`repro.parallel.WorkerPool.map` call — serial when ``jobs=1``,
   a persistent process pool otherwise.  Results are stored (successes
   only) and handed back to the waiting handler threads.
5. A handler that waits longer than the per-request timeout answers 504;
   the computed artifact still lands in the store when it finishes, so
   a retry is a cheap hit.

``SIGTERM``/``SIGINT`` starts a graceful drain: new compiles are
refused, every accepted request finishes and flushes its response, then
the listener stops and the telemetry snapshot persists.

Everything is stdlib: ``http.server`` (threading), ``queue``,
``signal``.  :func:`execute_request` is module-level and consumes/returns
plain dicts so it crosses process boundaries for ``--jobs > 1``.
"""

from __future__ import annotations

import json
import queue
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

from repro.diagnostics import LintError
from repro.parallel import WorkerCrashError, WorkerPool
from repro.service import protocol
from repro.service.metrics import ServiceMetrics
from repro.service.store import ArtifactStore
from repro.service.protocol import ProtocolError

__all__ = ["ServiceServer", "execute_request", "build_source_function"]


# ----------------------------------------------------------------------
# request execution (pure; runs in pool workers and in direct callers)
# ----------------------------------------------------------------------


def build_source_function(source: Dict[str, str]):
    """Materialise the request's function, mapping failures to protocol
    errors: unknown workloads to SVC05, parse errors to SVC06."""
    if "workload" in source:
        from repro.workloads import get_workload

        try:
            return get_workload(source["workload"]).function()
        except KeyError:
            raise ProtocolError(
                "SVC05", f"unknown workload {source['workload']!r}; "
                "see `repro list`") from None
    from repro.ir import ParseError, parse_function

    try:
        return parse_function(source["text"], filename="<request>")
    except ParseError as exc:
        raise ProtocolError("SVC06", "source.text does not parse",
                            [exc.diagnostic]) from None


def _request_function(req: Dict[str, object]):
    """The request's function, preferring the compact wire form the
    server attaches after validation (``req["_wire"]``) over re-building
    from source — one parse per request instead of one per process.
    Results are identical either way: the decoded function is
    structurally equal to the parsed one, and the pipeline's outputs
    never depend on instruction uids."""
    wire = req.get("_wire")
    if wire is not None:
        from repro.ir.wire import WireError, from_wire

        try:
            return from_wire(wire)
        except WireError:
            pass  # corrupt payload: fall back to the source of truth
    return build_source_function(req["source"])


def _default_args(source: Dict[str, str]) -> Tuple[int, ...]:
    """Execution arguments when the request leaves ``args`` null."""
    if "workload" in source:
        from repro.workloads import get_workload

        return tuple(get_workload(source["workload"]).default_args)
    return ()


def _compile(req: Dict[str, object]) -> Dict[str, object]:
    from repro.analysis.profile import (block_frequencies_from_counts,
                                        profile_block_frequencies)
    from repro.ir import format_function
    from repro.machine import (LowEndConfig, LowEndTimingModel,
                               interpret_or_derive, record_reference_run)
    from repro.regalloc.pipeline import run_setup

    fn = _request_function(req)
    if req["debug_sleep"]:
        time.sleep(req["debug_sleep"])
    options = req["options"]
    machine = LowEndConfig(**req["machine"])

    args = tuple(req["args"]) if req["args"] is not None \
        else _default_args(req["source"])

    freq = None
    if options["profile"]:
        recorded = record_reference_run(fn, args)
        if recorded is not None and recorded.block_instr_counts:
            freq = block_frequencies_from_counts(
                fn, recorded.block_instr_counts)
        else:
            freq = profile_block_frequencies(fn, args)

    prog = run_setup(
        fn, req["setup"],
        base_k=options["base_k"], reg_n=options["reg_n"],
        diff_n=options["diff_n"], remap_restarts=options["restarts"],
        access_order=options["access_order"], freq=freq,
        remap_seed=options["seed"], remap_jobs=1,
    )

    result: Dict[str, object] = {
        "name": fn.name,
        "setup": req["setup"],
        "allocation": {
            "instructions": prog.n_instructions,
            "spills": prog.n_spills,
            "spill_fraction": prog.spill_fraction,
            "setlr": prog.n_setlr,
            "setlr_fraction": prog.setlr_fraction,
            "code": format_function(prog.final_fn),
        },
        "encoding": None,
        "cycles": None,
        "checksum": None,
    }
    if prog.encoded is not None:
        config = prog.encoded.config
        result["encoding"] = {
            "reg_n": config.reg_n,
            "diff_n": config.diff_n,
            "field_bits": config.field_bits,
            "direct_field_bits": config.direct_field_bits,
            "n_setlr_inline": prog.encoded.n_setlr_inline,
            "n_setlr_join": prog.encoded.n_setlr_join,
            "overhead_fraction": prog.encoded.overhead_fraction,
        }
    if req["simulate"]:
        recorded = record_reference_run(fn, args)
        try:
            execution = interpret_or_derive(prog.final_fn, args, recorded)
        except Exception as exc:
            raise ProtocolError(
                "SVC08", f"simulation failed: "
                f"{type(exc).__name__}: {exc}") from None
        report = LowEndTimingModel(machine).time(
            execution.columnar if execution.columnar is not None
            else execution.trace)
        result["cycles"] = {
            "cycles": report.cycles,
            "instructions": report.instructions,
            "icache_misses": report.icache_misses,
            "dcache_misses": report.dcache_misses,
            "dcache_accesses": report.dcache_accesses,
            "branch_penalties": report.branch_penalties,
            "setlr_executed": report.setlr_executed,
            "cpi": report.cpi,
            "energy": report.energy,
        }
        result["checksum"] = execution.return_value
    return result


def execute_request(req: Dict[str, object]) -> Dict[str, object]:
    """Run one *normalized* compile request to a response envelope.

    Never raises — every failure becomes an error envelope — and is a
    pure function of the request, so cold server compiles, warm store
    hits and direct in-process calls all produce identical bytes under
    :func:`repro.service.protocol.encode_message`.
    """
    try:
        return protocol.ok_response(_compile(req))
    except ProtocolError as exc:
        return protocol.protocol_error_response(exc)
    except LintError as exc:
        return protocol.error_response(
            "SVC07", f"pipeline rejected the function: "
            f"{str(exc).splitlines()[0]}", exc.diagnostics)
    except ValueError as exc:
        return protocol.error_response("SVC03", str(exc))
    except Exception as exc:  # noqa: BLE001 - envelope, don't crash a worker
        return protocol.error_response(
            "SVC12", f"{type(exc).__name__}: {exc}")


# ----------------------------------------------------------------------
# the daemon
# ----------------------------------------------------------------------


class _Pending:
    """One queued compile: the request, its key, and the rendezvous."""

    __slots__ = ("request", "key", "event", "body", "response")

    def __init__(self, request: Dict[str, object], key: str) -> None:
        self.request = request
        self.key = key
        self.event = threading.Event()
        self.body: Optional[bytes] = None
        self.response: Optional[Dict[str, object]] = None

    def resolve(self, body: bytes, response: Dict[str, object]) -> None:
        self.body = body
        self.response = response
        self.event.set()


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-service"

    @property
    def service(self) -> "ServiceServer":
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, fmt: str, *args) -> None:
        if self.service.verbose:
            BaseHTTPRequestHandler.log_message(self, fmt, *args)

    def _reply(self, status: int, body: bytes,
               headers: Optional[Dict[str, str]] = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0]
        if path == "/healthz":
            doc = self.service.health()
        elif path == "/statsz":
            doc = self.service.statsz()
        else:
            self._reply(404, protocol.encode_message(protocol.error_response(
                "SVC03", f"unknown endpoint {path!r}")))
            return
        self._reply(200, json.dumps(doc, sort_keys=True).encode("ascii"))

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        try:
            length = int(self.headers.get("Content-Length", "0"))
            raw = self.rfile.read(length)
        except (ValueError, OSError):
            raw = b""
        try:
            status, headers, body = self.service.handle_compile(raw)
        except Exception as exc:  # noqa: BLE001 - keep the daemon alive
            body = protocol.encode_message(protocol.error_response(
                "SVC12", f"{type(exc).__name__}: {exc}"))
            status, headers = 500, {}
        try:
            self._reply(status, body, headers)
        except OSError:
            pass  # client went away; nothing to salvage


class ServiceServer:
    """The long-running allocation service (``repro serve``)."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8421, *,
                 store: ArtifactStore,
                 jobs: int = 1,
                 queue_limit: int = 64,
                 max_batch: int = 8,
                 linger: float = 0.02,
                 request_timeout: float = 60.0,
                 recycle_after: Optional[int] = None,
                 allow_debug: bool = False,
                 telemetry_path: Optional[str] = None,
                 verbose: bool = False) -> None:
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.store = store
        self.metrics = ServiceMetrics()
        self.pool = WorkerPool(jobs, recycle_after=recycle_after)
        self.max_batch = max_batch
        self.linger = linger
        self.request_timeout = request_timeout
        self.allow_debug = allow_debug
        self.telemetry_path = telemetry_path
        self.verbose = verbose
        self._queue: "queue.Queue[_Pending]" = queue.Queue(
            maxsize=queue_limit)
        self._draining = threading.Event()
        self._stopping = threading.Event()
        self._batch_thread = threading.Thread(
            target=self._batch_loop, name="repro-service-batcher",
            daemon=True)
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.service = self  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    # addresses / introspection
    # ------------------------------------------------------------------

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    def health(self) -> Dict[str, object]:
        """The ``/healthz`` document: serving or draining."""
        return {
            "v": protocol.SCHEMA_VERSION,
            "ok": True,
            "status": "draining" if self._draining.is_set() else "serving",
        }

    def statsz(self) -> Dict[str, object]:
        """The ``/statsz`` document: counters + store + pool shape."""
        doc = self.metrics.snapshot(queue_depth=self._queue.qsize())
        doc["store"] = self.store.stats()
        doc["jobs"] = self.pool.jobs
        doc["pool"] = self.pool.stats()
        return doc

    # ------------------------------------------------------------------
    # the compile path (runs on handler threads)
    # ------------------------------------------------------------------

    def handle_compile(self, raw: bytes
                       ) -> Tuple[int, Dict[str, str], bytes]:
        """Serve one POST body; returns (status, headers, body bytes)."""
        t0 = time.monotonic()
        self.metrics.inc("requests")
        try:
            req = protocol.normalize_request(protocol.decode_message(raw))
            if req["debug_sleep"] and not self.allow_debug:
                req["debug_sleep"] = 0.0
            fn = build_source_function(req["source"])
            from repro.analysis.cache import fingerprint_digest

            key = protocol.cache_key(req, fingerprint_digest(fn))
            # The handler thread already materialised the function for
            # the cache key; ship that work to the worker as a compact
            # wire payload so the pool never re-parses the source.
            # Attached *after* cache_key: the key hashes named fields
            # only, and the wire form must never influence it.
            from repro.ir.wire import WireError, to_wire

            try:
                req["_wire"] = to_wire(fn)
            except WireError:
                pass  # worker falls back to building from source
        except ProtocolError as exc:
            self.metrics.inc("responses_error")
            body = protocol.encode_message(
                protocol.protocol_error_response(exc))
            return exc.http_status, {}, body

        cached = self.store.get(key)
        if cached is not None:
            self.metrics.inc("store_hits")
            self.metrics.inc("responses_ok")
            self.metrics.observe_latency(time.monotonic() - t0)
            return 200, {"X-Repro-Cache": "hit", "X-Repro-Key": key}, cached
        self.metrics.inc("store_misses")

        if self._draining.is_set():
            self.metrics.inc("drained_refusals")
            response = protocol.error_response(
                "SVC11", "server is draining; retry against a live "
                "instance", retry_after=5)
            return 503, {"Retry-After": "5"}, \
                protocol.encode_message(response)

        pending = _Pending(req, key)
        try:
            self._queue.put_nowait(pending)
        except queue.Full:
            self.metrics.inc("rejected")
            response = protocol.error_response(
                "SVC10", "compile queue is full", retry_after=1)
            return 429, {"Retry-After": "1"}, \
                protocol.encode_message(response)
        self.metrics.note_queue_depth(self._queue.qsize())

        if not pending.event.wait(self.request_timeout):
            self.metrics.inc("timeouts")
            self.metrics.inc("responses_error")
            response = protocol.error_response(
                "SVC09", f"compile exceeded the {self.request_timeout:g}s "
                "request timeout; the artifact will be cached when it "
                "completes — retry", retry_after=1)
            return 504, {"Retry-After": "1", "X-Repro-Key": key}, \
                protocol.encode_message(response)

        assert pending.body is not None and pending.response is not None
        status = protocol.http_status(pending.response)
        self.metrics.inc("responses_ok" if status == 200
                         else "responses_error")
        self.metrics.observe_latency(time.monotonic() - t0)
        return status, {"X-Repro-Cache": "miss", "X-Repro-Key": key}, \
            pending.body

    # ------------------------------------------------------------------
    # the batch dispatcher (single background thread)
    # ------------------------------------------------------------------

    def _collect_batch(self) -> Optional[list]:
        """Block for the next request, then linger briefly to co-schedule
        whatever else is queued (micro-batching)."""
        try:
            first = self._queue.get(timeout=0.1)
        except queue.Empty:
            return None
        batch = [first]
        deadline = time.monotonic() + self.linger
        while len(batch) < self.max_batch:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            try:
                batch.append(self._queue.get(timeout=remaining))
            except queue.Empty:
                break
        return batch

    def _batch_loop(self) -> None:
        while True:
            batch = self._collect_batch()
            if batch is None:
                if self._stopping.is_set():
                    return
                continue
            try:
                responses = self.pool.map(
                    execute_request, [p.request for p in batch])
            except WorkerCrashError as exc:
                # a worker died mid-batch (segfault, OOM kill): the pool
                # has already recycled itself, so only this in-flight
                # batch fails — the dispatcher and later batches live on
                self.metrics.inc("worker_crashes")
                responses = [protocol.error_response(
                    "SVC13", f"worker crashed while compiling this "
                    f"batch: {exc}; the pool has been rebuilt — retry",
                    retry_after=1)] * len(batch)
            except Exception as exc:  # noqa: BLE001 - e.g. a dead pool
                responses = [protocol.error_response(
                    "SVC12", f"batch dispatch failed: "
                    f"{type(exc).__name__}: {exc}")] * len(batch)
            self.metrics.record_batch(len(batch))
            for pending, response in zip(batch, responses):
                body = protocol.encode_message(response)
                if response.get("ok"):
                    self.store.put(pending.key, body)
                pending.resolve(body, response)
                self._queue.task_done()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start the dispatcher (tests drive the HTTP loop separately).

        Pre-warms the worker fleet so the first real batch is served by
        processes that already exist — spawn cost is paid before the
        listener takes traffic, not inside a request's latency budget.
        """
        self.pool.warm()
        self._batch_thread.start()

    def start_background(self) -> threading.Thread:
        """Run the HTTP loop on a daemon thread (tests, embedding)."""
        self.start()
        thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-service-http", daemon=True)
        thread.start()
        return thread

    def stop_background(self, thread: threading.Thread) -> None:
        """Stop a :meth:`start_background` server and release resources."""
        if thread.is_alive():
            self._httpd.shutdown()
        thread.join(timeout=30)
        self.shutdown()

    def serve_forever(self, install_signal_handlers: bool = True,
                      ready_callback=None) -> None:
        """Run until :meth:`initiate_drain` completes a graceful drain.

        With ``install_signal_handlers``, SIGTERM and SIGINT both start
        the drain.  ``ready_callback`` fires with ``(host, port)`` once
        the listener is live (the CLI writes the ``--ready-file`` here).
        """
        if install_signal_handlers:
            signal.signal(signal.SIGTERM, self._on_signal)
            signal.signal(signal.SIGINT, self._on_signal)
        self.start()
        if ready_callback is not None:
            ready_callback(self.host, self.port)
        try:
            self._httpd.serve_forever(poll_interval=0.1)
        finally:
            self.shutdown()

    def _on_signal(self, _signum, _frame) -> None:
        self.initiate_drain()

    def initiate_drain(self) -> None:
        """Refuse new compiles, finish accepted ones, then stop."""
        if self._draining.is_set():
            return
        self._draining.set()
        threading.Thread(target=self._drain_then_stop,
                         name="repro-service-drain", daemon=True).start()

    def _drain_then_stop(self) -> None:
        self._queue.join()          # every accepted compile resolved
        self._httpd.shutdown()      # stop the accept loop

    def shutdown(self) -> None:
        """Finish in-flight work, flush telemetry, release everything."""
        self._draining.set()
        self._queue.join()
        self._stopping.set()
        if self._batch_thread.is_alive():
            self._batch_thread.join()
        # joins still-running handler threads so no accepted response is
        # lost (ThreadingHTTPServer.block_on_close)
        self._httpd.server_close()
        self.pool.close()
        if self.telemetry_path:
            self.metrics.persist(self.telemetry_path,
                                 extra={"store": self.store.stats()})
