"""End-to-end service smoke: the scenario CI runs (``repro service-smoke``).

Boots a real ``repro serve`` subprocess against a fresh store, then:

1. drives ~50 mixed requests — compiles across workloads and setups,
   assembly-text sources, malformed JSON, an unknown workload, a bad
   schema version, and one forced timeout (``debug_sleep`` past the
   server's request deadline) — through a small thread pool so several
   compiles are in flight at once;
2. repeats the well-formed compile set and asserts the second pass is
   served with a non-zero store hit-rate and byte-identical bodies;
3. sends SIGTERM and asserts the daemon drains cleanly (exit code 0)
   and persists its telemetry snapshot.

Returns a process exit code; prints a one-line verdict per phase so CI
logs read as a checklist.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple

from repro.service import protocol
from repro.service.client import ServiceClient

__all__ = ["run_smoke"]

_TEXT_SOURCE = """\
func smoke_text(v0):
entry:
    li v1, 7
    li v2, 13
    add v3, v0, v1
    mul v4, v3, v2
    sub v5, v4, v1
    ret v5
"""


def _compile_requests(cases: int) -> List[Dict[str, object]]:
    """A deterministic mixed bag of well-formed compile requests."""
    from repro.regalloc.pipeline import SETUPS
    from repro.workloads import MIBENCH

    requests: List[Dict[str, object]] = []
    names = [w.name for w in MIBENCH[:6]]
    for i in range(cases):
        if i % 7 == 3:
            requests.append(protocol.build_compile_request(
                text=_TEXT_SOURCE, setup=SETUPS[i % len(SETUPS)],
                args=[9], restarts=2))
        else:
            requests.append(protocol.build_compile_request(
                workload=names[i % len(names)],
                setup=SETUPS[i % len(SETUPS)],
                restarts=2 + (i % 2)))
    return requests


def _drive(client: ServiceClient, requests: List[Dict[str, object]],
           workers: int = 8) -> List:
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(client.compile_request, requests))


def _wait_ready(ready_file: str, proc: subprocess.Popen,
                timeout: float = 30.0) -> Tuple[str, int]:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(
                f"server exited early with code {proc.returncode}")
        try:
            with open(ready_file) as fh:
                text = fh.read().strip()
            if text:
                host, port = text.rsplit(":", 1)
                return host, int(port)
        except (FileNotFoundError, ValueError):
            pass
        time.sleep(0.05)
    raise RuntimeError("server did not become ready in time")


def run_smoke(out_path: str = "TELEMETRY_service.json",
              cases: int = 50, jobs: int = 2,
              request_timeout: float = 5.0,
              store_root: Optional[str] = None) -> int:
    """Run the whole scenario; returns 0 on success, 1 on any failure."""
    failures: List[str] = []

    def check(ok: bool, label: str) -> None:
        print(f"  {'ok' if ok else 'FAIL'}: {label}")
        if not ok:
            failures.append(label)

    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as tmp:
        ready_file = os.path.join(tmp, "ready")
        store = store_root or os.path.join(tmp, "store")
        cmd = [
            sys.executable, "-m", "repro", "serve",
            "--host", "127.0.0.1", "--port", "0",
            "--jobs", str(jobs), "--store", store,
            "--telemetry", out_path, "--ready-file", ready_file,
            "--allow-debug", "--timeout", str(request_timeout),
            "--queue-limit", "64",
        ]
        env = dict(os.environ)
        src_root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        env["PYTHONPATH"] = src_root + os.pathsep + \
            env.get("PYTHONPATH", "")
        proc = subprocess.Popen(cmd, env=env)
        try:
            host, port = _wait_ready(ready_file, proc)
            client = ServiceClient(host, port,
                                   timeout=request_timeout + 30)
            print(f"server ready on {host}:{port}")
            check(client.health().get("status") == "serving", "healthz")

            requests = _compile_requests(cases)

            print(f"pass 1: {len(requests)} compiles + malformed traffic")
            t0 = time.monotonic()
            first = _drive(client, requests)
            cold_elapsed = time.monotonic() - t0
            check(all(r.ok for r in first), "every well-formed compile OK")

            bad_json = client.post_raw(b"{not json")
            check(bad_json.status == 400
                  and bad_json.envelope["error"]["code"] == "SVC01",
                  "malformed JSON answered 400/SVC01")
            bad_version = client.compile_request(
                {"v": 99, "source": {"workload": "sha"}})
            check(bad_version.status == 400
                  and bad_version.envelope["error"]["code"] == "SVC02",
                  "bad schema version answered 400/SVC02")
            missing = client.compile_request(
                protocol.build_compile_request(workload="no-such-kernel"))
            check(missing.status == 404, "unknown workload answered 404")
            # seed 999 is used by no other request, so this cannot be a
            # store hit (debug_sleep itself is not part of the cache key)
            slow = client.compile_request(protocol.build_compile_request(
                workload="sha", restarts=2, seed=999,
                debug_sleep=request_timeout + 2))
            check(slow.status == 504
                  and slow.envelope["error"]["code"] == "SVC09",
                  "forced timeout answered 504/SVC09")

            print("pass 2: identical compile set (expect store hits)")
            t0 = time.monotonic()
            second = _drive(client, requests)
            warm_elapsed = time.monotonic() - t0
            check(all(r.ok for r in second), "warm pass OK")
            check(all(a.body == b.body
                      for a, b in zip(first, second)),
                  "warm bodies byte-identical to cold")
            stats = client.stats()
            check(stats.get("store_hits", 0) > 0
                  and stats.get("hit_rate", 0) > 0,
                  f"store hit-rate > 0 (hits={stats.get('store_hits')}, "
                  f"rate={stats.get('hit_rate'):.2f})")
            print(f"  cold {cold_elapsed:.2f}s, warm {warm_elapsed:.2f}s "
                  f"({cold_elapsed / max(warm_elapsed, 1e-9):.1f}x)")

            print("drain: SIGTERM")
            proc.send_signal(signal.SIGTERM)
            code = proc.wait(timeout=60)
            check(code == 0, f"clean drain exit (code {code})")
            check(os.path.exists(out_path), f"telemetry written: {out_path}")
            if os.path.exists(out_path):
                import json

                with open(out_path) as fh:
                    telemetry = json.load(fh)
                check(telemetry.get("store_misses", 0) > 0,
                      f"telemetry records compiles "
                      f"(store_misses={telemetry.get('store_misses')})")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)

    if failures:
        print(f"service-smoke: {len(failures)} failure(s)")
        return 1
    print("service-smoke: all checks passed")
    return 0
