"""End-to-end daemon tests over real HTTP on an ephemeral port."""

import json
import socket
import threading
import time
from contextlib import contextmanager

import pytest

from repro.service.client import ServiceClient, ServiceError
from repro.service.protocol import build_compile_request, encode_message
from repro.service.server import ServiceServer
from repro.service.store import ArtifactStore

# small and fast: a few restarts are plenty for protocol-level tests
FAST = {"restarts": 2}


@contextmanager
def serving(tmp_path, **overrides):
    store = ArtifactStore(str(tmp_path / "store"))
    kwargs = dict(store=store, jobs=1, allow_debug=True)
    kwargs.update(overrides)
    server = ServiceServer("127.0.0.1", 0, **kwargs)
    thread = server.start_background()
    client = ServiceClient(server.host, server.port, timeout=30)
    try:
        yield server, client
    finally:
        client.close()
        server.stop_background(thread)


@pytest.fixture
def served(tmp_path):
    with serving(tmp_path) as (server, client):
        yield server, client


class TestEndpoints:
    def test_healthz(self, served):
        _server, client = served
        assert client.health() == {"v": 1, "ok": True, "status": "serving"}

    def test_statsz_counters_move(self, served):
        _server, client = served
        client.compile(workload="crc32", **FAST)
        stats = client.stats()
        assert stats["requests"] == 1
        assert stats["store_misses"] == 1
        assert stats["batches"] == 1
        assert stats["batched_requests"] == 1
        assert stats["store"]["entries"] == 1
        assert stats["jobs"] == 1

    def test_unknown_endpoint_404(self, served):
        _server, client = served
        reply = client._exchange("GET", "/nope")
        assert reply.status == 404


class TestErrors:
    def test_malformed_json_400(self, served):
        _server, client = served
        reply = client.post_raw(b"{this is not json")
        assert reply.status == 400
        assert reply.envelope["error"]["code"] == "SVC01"

    def test_bad_version_400(self, served):
        _server, client = served
        reply = client.compile_request({"v": 99,
                                        "source": {"workload": "crc"}})
        assert reply.status == 400
        assert reply.envelope["error"]["code"] == "SVC02"

    def test_unknown_workload_404(self, served):
        _server, client = served
        with pytest.raises(ServiceError) as excinfo:
            client.compile(workload="no-such-benchmark")
        assert excinfo.value.status == 404
        assert excinfo.value.code == "SVC05"

    def test_parse_error_carries_diagnostics(self, served):
        _server, client = served
        reply = client.compile_request(
            build_compile_request(text="func broken(\n"))
        assert reply.status == 400
        assert reply.envelope["error"]["code"] == "SVC06"
        assert reply.envelope["error"]["diagnostics"]

    def test_negative_content_length_400_without_reading(self, served):
        """``rfile.read(-1)`` would wait for the client to hang up; the
        handler answers at once and closes the connection."""
        server, _client = served
        with socket.create_connection((server.host, server.port),
                                      timeout=3) as sock:
            sock.sendall(b"POST / HTTP/1.1\r\nHost: x\r\n"
                         b"Content-Length: -1\r\n\r\n{}")
            reply = b""
            while chunk := sock.recv(4096):   # until the server closes
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400")
        assert json.loads(body)["error"]["code"] == "SVC03"

    def test_unparsable_content_length_closes_the_connection(self, served):
        """The body of such a request has no known end, so its bytes
        must not be read as the connection's next request."""
        server, _client = served
        with socket.create_connection((server.host, server.port),
                                      timeout=3) as sock:
            sock.sendall(b"POST / HTTP/1.1\r\nHost: x\r\n"
                         b"Content-Length: ten\r\n\r\n{}")
            reply = b""
            while chunk := sock.recv(4096):   # until the server closes
                reply += chunk
        assert reply.count(b"HTTP/1.1 ") == 1
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400")
        assert json.loads(body)["error"]["code"] == "SVC01"

    def test_expect_100_continue_is_answered_before_the_body(self, served):
        """A client that sends ``Expect: 100-continue`` holds its body
        back until the interim reply arrives (curl waits 1 s)."""
        server, _client = served
        body = encode_message(build_compile_request(workload="crc32",
                                                    **FAST))
        with socket.create_connection((server.host, server.port),
                                      timeout=3) as sock:
            sock.sendall(b"POST / HTTP/1.1\r\nHost: x\r\n"
                         b"Expect: 100-continue\r\nContent-Length: "
                         + str(len(body)).encode() + b"\r\n\r\n")
            sock.settimeout(0.5)
            assert sock.recv(4096).startswith(b"HTTP/1.1 100")

    def test_handler_survives_errors(self, served):
        """One bad request must not poison the next good one."""
        _server, client = served
        client.post_raw(b"\xff\xff")
        client.compile_request({"v": 1, "source": {}, "oops": 1})
        assert client.compile(workload="crc32", **FAST)["name"] == "crc32"


class TestCaching:
    def test_cold_miss_then_warm_hit_same_bytes(self, served):
        _server, client = served
        request = build_compile_request(workload="sha", **FAST)
        cold = client.compile_request(request)
        warm = client.compile_request(request)
        assert (cold.cache, warm.cache) == ("miss", "hit")
        assert cold.body == warm.body
        assert cold.headers["x-repro-key"] == warm.headers["x-repro-key"]

    def test_spelled_out_defaults_share_the_artifact(self, served):
        """Normalisation keys by meaning, not by request spelling."""
        _server, client = served
        terse = build_compile_request(workload="crc32", **FAST)
        spelled = dict(terse, op="compile", setup="remapping",
                       simulate=True, machine={})
        cold = client.compile_request(terse)
        warm = client.compile_request(spelled)
        assert warm.cache == "hit"
        assert warm.body == cold.body

    def test_error_responses_are_not_cached(self, served):
        server, client = served
        with pytest.raises(ServiceError):
            client.compile(workload="missing-one")
        with pytest.raises(ServiceError):
            client.compile(workload="missing-one")
        assert server.store.stats()["entries"] == 0


class TestBackpressure:
    def test_queue_full_answers_429_with_retry_after(self, tmp_path):
        """One compile thread and one queue slot: a slow miss compiles,
        a second waits for the thread, and a third must bounce with
        backpressure.  Both slots come back once the slow ones finish,
        though their handlers timed out (504) long before."""
        with serving(tmp_path, queue_limit=1, request_timeout=0.1) as (
                server, client):
            for seed in (1, 2):
                slow = client.compile_request(build_compile_request(
                    workload="crc32", seed=seed, debug_sleep=1.0, **FAST))
                assert slow.status == 504
            third = build_compile_request(workload="crc32", seed=3, **FAST)
            reply = client.compile_request(third)
            assert reply.status == 429
            assert reply.headers["retry-after"] == "1"
            envelope = json.loads(reply.body)
            assert envelope["error"]["code"] == "SVC10"
            assert envelope["error"]["retry_after"] == 1
            assert server.metrics.snapshot()["rejected"] == 1
            deadline = time.monotonic() + 10
            while server.statsz()["queue_depth"] and \
                    time.monotonic() < deadline:
                time.sleep(0.05)
            assert server.statsz()["queue_depth"] == 0
            assert client.compile_request(third).status == 200

    def test_submit_after_the_drain_answers_503_and_frees_its_slot(
            self, tmp_path):
        """A miss admitted just before a drain shuts the compile
        executor down is refused as draining, not left holding a slot."""
        server = ServiceServer("127.0.0.1", 0,
                               store=ArtifactStore(str(tmp_path / "store")),
                               jobs=1)
        try:
            server._compiles.shutdown()   # the drain wins the race
            status, headers, body = server.handle_compile(encode_message(
                build_compile_request(workload="crc32", **FAST)))
            assert status == 503
            assert headers["Retry-After"] == "5"
            assert json.loads(body)["error"]["code"] == "SVC11"
            assert server.statsz()["queue_depth"] == 0
            assert server.metrics.snapshot()["drained_refusals"] == 1
        finally:
            server._httpd.server_close()
            server.pool.close()

    def test_timeout_504_then_retry_hits_the_artifact(self, tmp_path):
        with serving(tmp_path, request_timeout=0.2) as (server, client):
            slow = build_compile_request(workload="crc32", debug_sleep=0.8,
                                         **FAST)
            reply = client.compile_request(slow)
            assert reply.status == 504
            assert reply.envelope["error"]["code"] == "SVC09"
            key = reply.headers["x-repro-key"]
            # the abandoned compile still lands in the store...
            deadline = time.monotonic() + 5
            while server.store.get(key) is None and \
                    time.monotonic() < deadline:
                time.sleep(0.05)
            assert server.store.get(key) is not None
            # ...so the retry (debug_sleep is not part of the key) hits
            fast = build_compile_request(workload="crc32", **FAST)
            retry = client.compile_request(fast)
            assert retry.status == 200 and retry.cache == "hit"
            assert server.metrics.snapshot()["timeouts"] == 1


class TestDrain:
    def test_drain_refuses_new_work_but_finishes_accepted(self, tmp_path):
        with serving(tmp_path, request_timeout=30) as (server, client):
            accepted = {}

            def fire():
                req = build_compile_request(workload="sha", debug_sleep=0.6,
                                            **FAST)
                accepted["reply"] = client.compile_request(req)

            t = threading.Thread(target=fire)
            t.start()
            time.sleep(0.2)  # the compile is queued and sleeping
            server.initiate_drain()
            assert client.health()["status"] == "draining"
            refused = client.compile_request(
                build_compile_request(workload="crc32", **FAST))
            assert refused.status == 503
            assert refused.envelope["error"]["code"] == "SVC11"
            assert refused.headers["retry-after"] == "5"
            t.join(timeout=15)
            # the in-flight compile still completed and flushed its bytes
            assert accepted["reply"].status == 200
            assert json.loads(accepted["reply"].body)["ok"] is True

    def test_telemetry_snapshot_persists_on_shutdown(self, tmp_path):
        out = tmp_path / "telemetry.json"
        with serving(tmp_path, telemetry_path=str(out)) as (_s, client):
            client.compile(workload="crc32", **FAST)
            client.compile(workload="crc32", **FAST)
        doc = json.loads(out.read_text())
        assert doc["requests"] == 2
        assert doc["store_hits"] == 1
        assert doc["store"]["entries"] == 1


class TestStart:
    def test_start_forks_the_workers_before_any_request(self, tmp_path,
                                                        monkeypatch):
        """``start`` warms the pool, so its workers are forked before the
        server runs a thread of its own, not by the first compile."""
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        with serving(tmp_path, jobs=2) as (server, _client):
            assert server.pool.stats()["live"] == 1
            assert server.metrics.snapshot()["requests"] == 0


class TestCompileThreads:
    def test_jobs2_keeps_two_compiles_in_flight(self, tmp_path,
                                                monkeypatch):
        """With two workers, two slow misses run side by side: together
        they take about one ``debug_sleep``, not two."""
        import os

        from repro.service.client import compile_local

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        # load the pipeline before the pool forks, so no worker pays it
        compile_local(build_compile_request(workload="crc32", **FAST))
        with serving(tmp_path, jobs=2, request_timeout=30) as (server,
                                                               client):
            replies = [None, None]

            def fire(i):
                replies[i] = client.compile_request(build_compile_request(
                    workload="crc32", seed=301 + i, debug_sleep=0.6,
                    **FAST))

            threads = [threading.Thread(target=fire, args=(i,))
                       for i in range(2)]
            t0 = time.monotonic()
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            elapsed = time.monotonic() - t0
            assert not any(t.is_alive() for t in threads)
            assert [r.status for r in replies] == [200, 200]
            assert server.pool.stats()["tasks_dispatched"] == 2
        assert elapsed < 1.1, f"misses ran one after the other: {elapsed}"

    def test_jobs1_compiles_a_miss_without_waiting(self, tmp_path,
                                                   monkeypatch):
        """A lone miss reaches ``execute_request`` within milliseconds of
        entering ``handle_compile``: nothing waits for batch-mates."""
        import repro.service.server as server_module

        entered = {}
        original_handle = ServiceServer.handle_compile
        original_execute = server_module.execute_request

        def handle(self, raw):
            entered.setdefault("handle", []).append(time.monotonic())
            return original_handle(self, raw)

        def execute(req):
            entered.setdefault("execute", []).append(time.monotonic())
            return original_execute(req)

        monkeypatch.setattr(ServiceServer, "handle_compile", handle)
        monkeypatch.setattr(server_module, "execute_request", execute)
        with serving(tmp_path) as (_server, client):
            for seed in (401, 402, 403):
                assert client.compile(workload="crc32", seed=seed, **FAST)
        gaps = [e - h for h, e in zip(entered["handle"], entered["execute"])]
        assert len(gaps) == 3
        assert min(gaps) < 0.010, gaps


class TestStoreFailure:
    def test_failed_put_serves_uncached_and_shutdown_returns(
            self, tmp_path, monkeypatch):
        """A store write that fails (a full disk) costs the cache entry,
        never the answer: both sends compile and answer 200, and the
        compile thread lives on to let shutdown finish."""
        import errno

        def full_disk(self, key, body):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(ArtifactStore, "put", full_disk)
        store = ArtifactStore(str(tmp_path / "store"))
        server = ServiceServer("127.0.0.1", 0, store=store, jobs=1,
                               request_timeout=10)
        thread = server.start_background()
        client = ServiceClient(server.host, server.port, timeout=30)
        request = build_compile_request(workload="crc32", **FAST)
        replies = [client.compile_request(request) for _ in range(2)]
        client.close()
        stopper = threading.Thread(target=server.stop_background,
                                   args=(thread,), daemon=True)
        stopper.start()
        stopper.join(timeout=15)
        assert [(r.status, r.cache) for r in replies] == \
            [(200, "miss"), (200, "miss")]
        assert replies[0].body == replies[1].body
        assert not stopper.is_alive(), "shutdown hung on the queue"
        assert server.metrics.snapshot()["store_write_errors"] == 2


class TestWorkerCrash:
    def test_crashed_compile_answers_svc13_and_server_survives(
            self, tmp_path, monkeypatch):
        """A worker death fails only the in-flight request (SVC13); the
        pool rebuilds itself and the next request compiles normally."""
        import repro.parallel as parallel

        with serving(tmp_path) as (server, client):
            original_run = server.pool.run

            def crashing_run(fn, task):
                monkeypatch.setattr(server.pool, "run", original_run)
                raise parallel.WorkerCrashError("worker died (simulated)")

            monkeypatch.setattr(server.pool, "run", crashing_run)
            request = build_compile_request(workload="crc32", **FAST)
            reply = client.compile_request(request)
            assert reply.status == 500
            assert reply.envelope["error"]["code"] == "SVC13"
            assert reply.envelope["error"]["name"] == "worker-crash"
            # the daemon survives: same request now compiles cleanly
            reply = client.compile_request(request)
            assert reply.ok
            assert client.stats()["worker_crashes"] == 1

    def test_real_worker_crash_rebuilds_pool(self, tmp_path, monkeypatch):
        """With a real multi-process pool, an os._exit in a worker is
        absorbed: the compile is retried on a fresh pool and succeeds."""
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        with serving(tmp_path, jobs=2) as (server, client):
            assert server.pool.max_workers == 2
            assert client.compile(workload="crc32", **FAST)["name"] == \
                "crc32"


class TestDispatch:
    def test_dispatches_the_normalized_request(self, tmp_path):
        """The pool receives the normalized request itself: workers build
        the function from its source, and no private key rides along."""
        from repro.service.protocol import normalize_request

        request = build_compile_request(workload="crc32", **FAST)
        captured = {}

        with serving(tmp_path) as (server, client):
            original_run = server.pool.run

            def capturing_run(fn, task):
                captured.setdefault("requests", []).append(task)
                return original_run(fn, task)

            server.pool.run = capturing_run
            try:
                assert client.compile_request(request).ok
            finally:
                server.pool.run = original_run
        [dispatched] = captured["requests"]
        assert dispatched == normalize_request(request)
        assert not any(key.startswith("_") for key in dispatched)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_server_bytes_match_compile_local(self, tmp_path, monkeypatch,
                                              jobs):
        """Server responses are byte-identical to compile_local, whether
        they compile on the compile thread (``jobs=1``) or in forked
        workers (``jobs=2``)."""
        import os

        from repro.service.client import compile_local

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        requests = [build_compile_request(workload=name, setup="select",
                                          **FAST)
                    for name in ("bitcount", "crc32")]
        direct = [compile_local(r)[1] for r in requests]
        replies = [None] * len(requests)
        with serving(tmp_path, jobs=jobs) as (server, client):
            def fire(i):
                replies[i] = client.compile_request(requests[i])

            threads = [threading.Thread(target=fire, args=(i,))
                       for i in range(len(requests))]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            pooled = server.pool.stats()["tasks_dispatched"]
        assert [r.body for r in replies] == direct
        assert pooled == (len(requests) if jobs == 2 else 0)


def _count_accepts(server):
    """The client addresses of every connection the server accepts."""
    accepts = []
    original = server._httpd.process_request

    def counting(request, client_address):
        accepts.append(client_address)
        return original(request, client_address)

    server._httpd.process_request = counting
    return accepts


class TestKeepAlive:
    def test_one_thread_sends_on_one_connection(self, served):
        server, client = served
        accepts = _count_accepts(server)
        request = build_compile_request(workload="crc32", **FAST)
        replies = [client.compile_request(request) for _ in range(4)]
        assert client.health()["ok"]
        assert [r.cache for r in replies] == ["miss", "hit", "hit", "hit"]
        assert len(accepts) == 1

    def test_threads_sharing_a_client_get_their_own_connections(
            self, served):
        server, client = served
        accepts = _count_accepts(server)
        both = threading.Barrier(2, timeout=10)
        statuses = []

        def talk():
            statuses.append(client.health()["status"])
            both.wait()   # both connections are open at once
            statuses.append(client.health()["status"])

        threads = [threading.Thread(target=talk) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        assert statuses == ["serving"] * 4
        assert len(accepts) == 2
        # close() hangs up both, so no handler waits out its idle timeout
        client.close()
        deadline = time.monotonic() + 2
        while server._connections.open and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not server._connections.open

    def test_resends_once_when_the_server_dropped_the_connection(
            self, tmp_path, monkeypatch):
        import repro.service.server as server_module

        monkeypatch.setattr(server_module._Handler, "timeout", 0.2)
        with serving(tmp_path) as (server, client):
            accepts = _count_accepts(server)
            assert client.health()["ok"]
            time.sleep(0.6)   # the server times the idle connection out
            assert client.compile(workload="crc32", **FAST)["name"] == \
                "crc32"
        assert len(accepts) == 2

    def test_a_new_connection_closes_those_of_ended_threads(self, served):
        _server, client = served
        worker = threading.Thread(target=client.health)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        [ended] = client._conns.values()
        assert ended.sock is not None
        assert client.health()["ok"]
        assert ended.sock is None
        assert list(client._conns) == [threading.current_thread()]

    def test_stop_returns_while_a_client_holds_an_idle_connection(
            self, tmp_path):
        server = ServiceServer("127.0.0.1", 0,
                               store=ArtifactStore(str(tmp_path / "store")),
                               jobs=1)
        thread = server.start_background()
        client = ServiceClient(server.host, server.port, timeout=30)
        try:
            assert client.health()["ok"]   # the connection stays open
            t0 = time.monotonic()
            stopper = threading.Thread(target=server.stop_background,
                                       args=(thread,), daemon=True)
            stopper.start()
            stopper.join(timeout=15)
            elapsed = time.monotonic() - t0
        finally:
            client.close()
        assert not stopper.is_alive()
        assert elapsed < 2.0, f"shutdown waited on an idle connection: " \
                              f"{elapsed:.2f}s"

    def test_server_sockets_send_without_nagle_delay(self, served):
        """A reply too big for one buffered write goes out as head and
        body; with Nagle's algorithm on, the body would wait for the
        client's delayed ACK of the head, ~40 ms."""
        server, client = served
        sockets = []
        original = server._httpd.process_request

        def capturing(request, client_address):
            sockets.append(request)
            return original(request, client_address)

        server._httpd.process_request = capturing
        assert client.health()["ok"]
        [sock] = sockets
        assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


class TestDigestMemo:
    def test_store_hit_builds_no_function(self, served, monkeypatch):
        import repro.ir
        import repro.service.server as server_module
        from repro.fuzz.gen import generate_fuzz_function
        from repro.ir import format_function

        _server, client = served
        requests = [
            build_compile_request(
                text=format_function(generate_fuzz_function(3)), args=[5],
                **FAST),
            build_compile_request(workload="crc32", **FAST)]
        cold = [client.compile_request(r) for r in requests]

        def boom(*_args, **_kwargs):
            raise AssertionError("a store hit built the source function")

        monkeypatch.setattr(repro.ir, "parse_function", boom)
        monkeypatch.setattr(server_module, "build_source_function", boom)
        warm = [client.compile_request(r) for r in requests]
        assert [r.cache for r in cold] == ["miss", "miss"]
        assert [r.cache for r in warm] == ["hit", "hit"]
        assert [r.body for r in warm] == [r.body for r in cold]

    def test_parse_errors_are_answered_on_every_send(self, served):
        _server, client = served
        request = build_compile_request(text="func broken(\n")
        for _ in range(2):
            reply = client.compile_request(request)
            assert reply.status == 400
            assert reply.envelope["error"]["code"] == "SVC06"
            assert reply.envelope["error"]["diagnostics"]

    def test_threads_share_the_memo(self, tmp_path, monkeypatch):
        """Handler threads look up, insert and evict concurrently; every
        answer stays right and the memo stays within its bound."""
        import sys

        import repro.service.server as server_module
        from repro.analysis.cache import fingerprint_digest
        from repro.workloads import get_workload

        monkeypatch.setattr(server_module, "DIGEST_MEMO_SIZE", 2)
        names = ("crc32", "sha", "qsort", "bitcount")
        expected = {name: fingerprint_digest(get_workload(name).function())
                    for name in names}
        server = ServiceServer("127.0.0.1", 0,
                               store=ArtifactStore(str(tmp_path / "store")))
        wrong = []

        def hammer(i):
            try:
                for j in range(600):
                    name = names[(i + j // 3) % len(names)]
                    if server._source_digest({"workload": name}) != \
                            expected[name]:
                        wrong.append(name)
            except BaseException as exc:  # noqa: BLE001 - reported below
                wrong.append(exc)

        threads = [threading.Thread(target=hammer, args=(i,))
                   for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            server._httpd.server_close()
            server.pool.close()
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert len(server._digests) <= 2

    def test_memo_keeps_the_most_recent_sources(self, tmp_path,
                                                monkeypatch):
        import repro.service.server as server_module

        monkeypatch.setattr(server_module, "DIGEST_MEMO_SIZE", 2)
        server = ServiceServer("127.0.0.1", 0,
                               store=ArtifactStore(str(tmp_path / "store")))
        try:
            for name in ("crc32", "sha", "crc32", "qsort"):
                server._source_digest({"workload": name})
            assert list(server._digests) == [("workload", "crc32"),
                                             ("workload", "qsort")]
        finally:
            server._httpd.server_close()
            server.pool.close()
