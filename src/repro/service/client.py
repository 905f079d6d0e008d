"""Client side of the compile service: ``repro request`` and a python API.

:class:`ServiceClient` is a thin stdlib HTTP client that keeps one
keep-alive connection per calling thread (the server speaks plain
HTTP/1.1, so any client works).
:func:`compile_local` is the serial in-process reference path: the exact
bytes a healthy server would produce for the same request, used by the
parity tests and available to library callers who want the service
semantics without a daemon.
"""

from __future__ import annotations

import http.client
import json
import threading
from typing import Dict, List, Optional, Tuple

from repro.service import protocol
from repro.service.protocol import ProtocolError

__all__ = ["ServiceClient", "ServiceError", "ServiceReply", "compile_local"]


class ServiceError(RuntimeError):
    """A non-OK response envelope, with its HTTP status and error body."""

    def __init__(self, status: int, envelope: Dict[str, object]) -> None:
        error = envelope.get("error") if isinstance(envelope, dict) else None
        detail = error.get("message") if isinstance(error, dict) else None
        code = error.get("code") if isinstance(error, dict) else None
        super().__init__(f"service returned {status}"
                         + (f" [{code}] {detail}" if detail else ""))
        self.status = status
        self.envelope = envelope
        self.code = code
        self.retry_after = (error or {}).get("retry_after") \
            if isinstance(error, dict) else None


class ServiceReply:
    """One raw exchange: status, headers, body bytes, decoded envelope."""

    def __init__(self, status: int, headers: Dict[str, str],
                 body: bytes) -> None:
        self.status = status
        self.headers = headers
        self.body = body
        try:
            self.envelope: Dict[str, object] = json.loads(body)
        except (ValueError, UnicodeDecodeError):
            self.envelope = {}

    @property
    def ok(self) -> bool:
        return self.status == 200 and bool(self.envelope.get("ok"))

    @property
    def cache(self) -> Optional[str]:
        """``"hit"``/``"miss"`` from ``X-Repro-Cache``, if present."""
        return self.headers.get("x-repro-cache")

    def result(self) -> Dict[str, object]:
        """The compile result, raising :class:`ServiceError` otherwise."""
        if not self.ok:
            raise ServiceError(self.status, self.envelope)
        return self.envelope["result"]  # type: ignore[return-value]


class ServiceClient:
    """Talk to one ``repro serve`` instance.

    Each calling thread gets its own HTTP/1.1 connection and keeps it
    open across calls, so threads may share one client.  When the server
    has dropped a reused connection (its idle timeout, a drain), the
    request is sent once more on a fresh connection: compile requests
    are content-addressed, so a resend at worst compiles twice.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8421,
                 timeout: float = 120.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._lock = threading.Lock()
        self._conns: Dict[threading.Thread, http.client.HTTPConnection] = {}

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        """The calling thread's connection (it reconnects when closed).
        A new one first closes those of threads that have ended."""
        me = threading.current_thread()
        with self._lock:
            conn = self._conns.get(me)
            if conn is None:
                for thread in [t for t in self._conns if not t.is_alive()]:
                    self._conns.pop(thread).close()
                conn = self._conns[me] = http.client.HTTPConnection(
                    self.host, self.port, timeout=self.timeout)
        return conn

    def close(self) -> None:
        """Close every thread's connection.  Call it with no request in
        flight; a later call opens a fresh one."""
        with self._lock:
            conns, self._conns = list(self._conns.values()), {}
        for conn in conns:
            conn.close()

    def _exchange(self, method: str, path: str,
                  body: Optional[bytes] = None) -> ServiceReply:
        headers = {"Content-Type": "application/json"} if body else {}
        conn = self._connection()
        while True:
            reused = conn.sock is not None
            try:
                conn.request(method, path, body=body, headers=headers)
                resp = conn.getresponse()
                payload = resp.read()
            except ConnectionError:
                conn.close()
                if not reused:  # a fresh connection failed: give up
                    raise
                continue        # the server dropped it: resend once
            except BaseException:
                conn.close()    # never reuse a half-read exchange
                raise
            lowered = {k.lower(): v for k, v in resp.getheaders()}
            return ServiceReply(resp.status, lowered, payload)

    def post_raw(self, raw: bytes) -> ServiceReply:
        """POST arbitrary bytes — the smoke driver's malformed requests."""
        return self._exchange("POST", "/", raw)

    # ------------------------------------------------------------------
    # API
    # ------------------------------------------------------------------

    def compile_request(self, request: Dict[str, object]) -> ServiceReply:
        """Send an already-assembled compile request dict."""
        return self.post_raw(protocol.encode_message(request))

    def compile(self, workload: Optional[str] = None,
                text: Optional[str] = None,
                setup: str = "remapping",
                args: Optional[List[int]] = None,
                simulate: bool = True,
                machine: Optional[Dict[str, object]] = None,
                **options: object) -> Dict[str, object]:
        """Compile and return the result dict, raising on any error."""
        request = protocol.build_compile_request(
            workload=workload, text=text, setup=setup, args=args,
            simulate=simulate, machine=machine, **options)
        return self.compile_request(request).result()

    def health(self) -> Dict[str, object]:
        """``GET /healthz``: liveness and serving/draining state."""
        reply = self._exchange("GET", "/healthz")
        return reply.envelope

    def stats(self) -> Dict[str, object]:
        """``GET /statsz``: the server's live counter snapshot."""
        reply = self._exchange("GET", "/statsz")
        return reply.envelope


def compile_local(request: Dict[str, object]
                  ) -> Tuple[Dict[str, object], bytes]:
    """The serial in-process reference for one raw compile request.

    Returns ``(envelope, canonical bytes)`` — exactly what a server
    would compute for the same request body, minus the transport.
    Validation failures become error envelopes, mirroring the server.
    """
    try:
        normalized = protocol.normalize_request(request)
    except ProtocolError as exc:
        envelope = protocol.protocol_error_response(exc)
        return envelope, protocol.encode_message(envelope)
    from repro.service.server import execute_request

    envelope = execute_request(normalized)
    return envelope, protocol.encode_message(envelope)
