"""The compile daemon: an HTTP server over the allocator pipeline.

Request lifecycle (``POST /``):

0. Connections are HTTP/1.1 keep-alive: one handler thread serves every
   request of its connection and sends each reply in one write (with
   Nagle's algorithm off, so a reply too big for one write is not held
   back behind the client's delayed ACK).  A connection idle for
   :data:`IDLE_TIMEOUT` seconds is closed; during a drain every reply
   carries ``Connection: close``, and shutdown stops reading every
   connection, so idle ones close at once and busy ones after their
   reply.
1. The handler thread decodes and normalises the request and computes
   the content-address key from the source function's digest.  The
   digest comes from a memo of the last :data:`DIGEST_MEMO_SIZE`
   sources (keyed on a SHA-256 of the text, or the workload name), so a
   repeated source is not parsed again; a source that fails to parse is
   not remembered.  Validation failures answer immediately with an
   error envelope.
2. The artifact store is consulted.  A hit is served straight from disk —
   the pipeline is never invoked — with ``X-Repro-Cache: hit``.
3. A miss is admitted if fewer than ``queue_limit`` plus one compile
   per pool worker are in flight; otherwise it is answered 429 with
   ``Retry-After`` (backpressure).  A draining server answers 503.
4. An admitted miss is submitted to a thread executor with one compile
   thread per pool worker, which compiles it with :meth:`WorkerPool.run
   <repro.parallel.WorkerPool.run>` — inline when ``jobs=1``, on a
   persistent process pool otherwise — and stores a success before the
   handler thread waiting on its future wakes.
5. A handler that waits longer than the per-request timeout answers 504;
   the compile is not cancelled and its artifact still lands in the
   store when it finishes, so a retry is a cheap hit.

``SIGTERM``/``SIGINT`` starts a graceful drain: new compiles are
refused, every accepted request finishes and flushes its response, then
the listener stops and the telemetry snapshot persists.

Everything is stdlib: ``http.server`` (threading), ``concurrent.futures``,
``signal``.  :func:`execute_request` is module-level and consumes/returns
plain dicts so it crosses process boundaries for ``--jobs > 1``.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import signal
import socket
import threading
import time
from collections import OrderedDict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Set, Tuple

from repro.diagnostics import LintError
from repro.parallel import WorkerCrashError, WorkerPool
from repro.service import protocol
from repro.service.metrics import ServiceMetrics
from repro.service.store import ArtifactStore
from repro.service.protocol import ProtocolError

__all__ = ["ServiceServer", "execute_request", "build_source_function"]

#: Sources whose function digest a server remembers (least recently
#: used first out).  An entry is two short strings.
DIGEST_MEMO_SIZE = 1024

#: Seconds a keep-alive connection may sit idle before the server
#: closes it.
IDLE_TIMEOUT = 5.0


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


def _default_args(source: Dict[str, str]) -> Tuple[int, ...]:
    """Execution arguments when the request leaves ``args`` null."""
    if "workload" in source:
        from repro.workloads import get_workload

        return tuple(get_workload(source["workload"]).default_args)
    return ()


def _compile(req: Dict[str, object]) -> Dict[str, object]:
    from repro.ir import format_function
    from repro.machine import (LowEndConfig, LowEndTimingModel,
                               interpret_or_derive, record_and_profile)
    from repro.regalloc.pipeline import run_setup

    fn = build_source_function(req["source"])
    if req["debug_sleep"]:
        time.sleep(req["debug_sleep"])
    options = req["options"]
    machine = LowEndConfig(**req["machine"])

    args = tuple(req["args"]) if req["args"] is not None \
        else _default_args(req["source"])

    recorded = freq = None
    if options["profile"] or req["simulate"]:
        recorded, freq = record_and_profile(fn, args, options["profile"])

    prog = run_setup(
        fn, req["setup"],
        base_k=options["base_k"], reg_n=options["reg_n"],
        diff_n=options["diff_n"], remap_restarts=options["restarts"],
        access_order=options["access_order"], freq=freq,
        remap_seed=options["seed"],
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
        try:
            execution = interpret_or_derive(prog.final_fn, args, recorded)
        except Exception as exc:
            raise ProtocolError(
                "SVC08", f"simulation failed: "
                f"{type(exc).__name__}: {exc}") from None
        report = LowEndTimingModel(machine).time(execution.columnar)
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


class _Connections:
    """The open client connections.  Each holds a handler thread that
    ``server_close`` joins, and an idle one waits in a read for up to
    :data:`IDLE_TIMEOUT`; :meth:`hang_up` ends those reads at once."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.open: Set[socket.socket] = set()
        self._hung_up = False

    def add(self, sock: socket.socket) -> None:
        with self._lock:
            self.open.add(sock)
            if self._hung_up:  # accepted just before the listener stopped
                _shut_reads(sock)

    def discard(self, sock: socket.socket) -> None:
        with self._lock:
            self.open.discard(sock)

    def hang_up(self) -> None:
        """Stop reading every connection: an idle handler's read returns
        end-of-file, and a busy handler still writes its reply."""
        # under the lock: a socket is closed only after ``discard``
        with self._lock:
            self._hung_up = True
            for sock in self.open:
                _shut_reads(sock)


def _shut_reads(sock: socket.socket) -> None:
    try:
        sock.shutdown(socket.SHUT_RD)
    except OSError:
        pass  # the client hung up first


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-service"
    # a reply is buffered and sent in one write; one larger than the
    # buffer goes out as two (head, body), and with Nagle on, the body
    # would wait for the client's delayed ACK of the head (~40 ms)
    wbufsize = -1
    disable_nagle_algorithm = True
    timeout = IDLE_TIMEOUT

    @property
    def service(self) -> "ServiceServer":
        return self.server.service  # type: ignore[attr-defined]

    def setup(self) -> None:
        super().setup()
        self.service._connections.add(self.connection)

    def finish(self) -> None:
        self.service._connections.discard(self.connection)
        super().finish()

    def handle_expect_100(self) -> bool:
        ok = super().handle_expect_100()
        self.wfile.flush()  # the client waits for it before its body
        return ok

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
        if self.close_connection or self.service._draining.is_set():
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)
        self.wfile.flush()

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
        except ValueError:
            length = 0
            self.close_connection = True  # the body has no known end
        if length < 0:  # read(-1) would block until the client hangs up
            self.close_connection = True
            self._reply(400, protocol.encode_message(protocol.error_response(
                "SVC03", f"Content-Length must be >= 0, got {length}")))
            return
        try:
            raw = self.rfile.read(length)
        except OSError:
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
                 request_timeout: float = 60.0,
                 allow_debug: bool = False,
                 telemetry_path: Optional[str] = None,
                 verbose: bool = False) -> None:
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        self.store = store
        self.metrics = ServiceMetrics()
        self.pool = WorkerPool(jobs)
        self.request_timeout = request_timeout
        self.allow_debug = allow_debug
        self.telemetry_path = telemetry_path
        self.verbose = verbose
        self._compiles = concurrent.futures.ThreadPoolExecutor(
            self.pool.max_workers,
            thread_name_prefix="repro-service-compile")
        # admitted misses, compiling or waiting for a compile thread
        self._capacity = queue_limit + self.pool.max_workers
        self._in_flight = 0
        self._in_flight_lock = threading.Lock()
        self._draining = threading.Event()
        self._connections = _Connections()
        self._digests: "OrderedDict[Tuple[str, str], str]" = OrderedDict()
        self._digests_lock = threading.Lock()
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.service = self  # type: ignore[attr-defined]
        # non-daemon handler threads, so ``server_close`` joins them and
        # an accepted response is flushed before the process exits
        self._httpd.daemon_threads = False

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
        doc = self.metrics.snapshot(queue_depth=self._in_flight)
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
            key = protocol.cache_key(req, self._source_digest(req["source"]))
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
            return self._refuse_draining()

        with self._in_flight_lock:
            admitted = self._in_flight < self._capacity
            if admitted:
                self._in_flight += 1
                depth = self._in_flight
        if not admitted:
            self.metrics.inc("rejected")
            response = protocol.error_response(
                "SVC10", "compile queue is full", retry_after=1)
            return 429, {"Retry-After": "1"}, \
                protocol.encode_message(response)
        try:
            future = self._compiles.submit(self._compile_and_store, req,
                                           key)
        except RuntimeError:  # a drain shut the executor down first
            self._release()
            return self._refuse_draining()
        future.add_done_callback(self._release)
        self.metrics.note_queue_depth(depth)
        self.metrics.inc("batches")
        self.metrics.inc("batched_requests")

        try:
            status, body = future.result(self.request_timeout)
        except concurrent.futures.TimeoutError:
            self.metrics.inc("timeouts")
            self.metrics.inc("responses_error")
            response = protocol.error_response(
                "SVC09", f"compile exceeded the {self.request_timeout:g}s "
                "request timeout; the artifact will be cached when it "
                "completes — retry", retry_after=1)
            return 504, {"Retry-After": "1", "X-Repro-Key": key}, \
                protocol.encode_message(response)

        self.metrics.inc("responses_ok" if status == 200
                         else "responses_error")
        self.metrics.observe_latency(time.monotonic() - t0)
        return status, {"X-Repro-Cache": "miss", "X-Repro-Key": key}, body

    def _refuse_draining(self) -> Tuple[int, Dict[str, str], bytes]:
        self.metrics.inc("drained_refusals")
        response = protocol.error_response(
            "SVC11", "server is draining; retry against a live "
            "instance", retry_after=5)
        return 503, {"Retry-After": "5"}, protocol.encode_message(response)

    def _release(self, _future=None) -> None:
        """Free one admission slot."""
        with self._in_flight_lock:
            self._in_flight -= 1

    def _source_digest(self, source: Dict[str, str]) -> str:
        """The function digest of a normalized source, built and parsed
        only on a memo miss.  Errors raise and are not remembered."""
        if "text" in source:
            memo_key = ("text", hashlib.sha256(source["text"].encode(
                "utf-8", "surrogatepass")).hexdigest())
        else:
            memo_key = ("workload", source["workload"])
        with self._digests_lock:
            digest = self._digests.get(memo_key)
            if digest is not None:
                self._digests.move_to_end(memo_key)
                return digest
        from repro.analysis.cache import fingerprint_digest

        digest = fingerprint_digest(build_source_function(source))
        with self._digests_lock:
            self._digests[memo_key] = digest
            if len(self._digests) > DIGEST_MEMO_SIZE:
                self._digests.popitem(last=False)
        return digest

    # ------------------------------------------------------------------
    # the compile (runs on the executor's compile threads)
    # ------------------------------------------------------------------

    def _compile_and_store(self, req: Dict[str, object], key: str
                           ) -> Tuple[int, bytes]:
        """Compile one admitted miss to ``(status, body)``.  A success is
        stored *before* it is returned (so the next send is a hit), and
        served uncached if the store write fails."""
        try:
            response = self.pool.run(execute_request, req)
        except WorkerCrashError as exc:
            # the pool retried on fresh workers and is rebuilt, so
            # only this request fails — later ones compile normally
            self.metrics.inc("worker_crashes")
            response = protocol.error_response(
                "SVC13", f"worker crashed while compiling this "
                f"request: {exc}; the pool has been rebuilt — retry",
                retry_after=1)
        except Exception as exc:  # noqa: BLE001 - e.g. a dead pool
            response = protocol.error_response(
                "SVC12", f"compile failed: "
                f"{type(exc).__name__}: {exc}")
        body = protocol.encode_message(response)
        if response.get("ok"):
            try:
                self.store.put(key, body)
            except OSError:  # e.g. a full disk
                self.metrics.inc("store_write_errors")
        return protocol.http_status(response), body

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Fork the pool's workers before the listener takes traffic.

        With the ``fork`` start method a process pool forks every worker
        on its first submit.  Warming here forks them before the server
        starts a thread of its own; left to the first compile, the fork
        would happen from a compile thread while handler threads run.
        It does not make the first compile fast: a warmed worker has
        imported nothing a compile needs.
        """
        self.pool.warm()

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
        self._compiles.shutdown(wait=True)  # every accepted compile done
        self._httpd.shutdown()              # stop the accept loop

    def shutdown(self) -> None:
        """Finish in-flight work, flush telemetry, release everything."""
        self._draining.set()
        self._compiles.shutdown(wait=True)
        self._connections.hang_up()
        # joins the handler threads, so no accepted response is lost
        self._httpd.server_close()
        self.pool.close()
        if self.telemetry_path:
            self.metrics.persist(self.telemetry_path,
                                 extra={"store": self.store.stats()})
