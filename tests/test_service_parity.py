"""Serial/served parity: the service must never change the numbers.

ISSUE acceptance: every low-end setup on a sample of mibench workloads
plus fuzz-generated functions returns bit-identical results via the
direct in-process call (:func:`repro.service.client.compile_local`), a
cold server compile, and a warm (cache-hit) server — and a warm hit must
never invoke the allocator.
"""

import pytest

from repro.fuzz import generate_fuzz_function
from repro.ir import format_function
from repro.regalloc.pipeline import SETUPS
from repro.service.client import ServiceClient, compile_local
from repro.service.protocol import build_compile_request
from repro.service.server import ServiceServer
from repro.service.store import ArtifactStore

FAST = {"restarts": 2}
WORKLOAD_SAMPLE = ("crc32", "sha")
FUZZ_SEEDS = (3, 11)


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    store = ArtifactStore(str(tmp_path_factory.mktemp("store")))
    server = ServiceServer("127.0.0.1", 0, store=store, jobs=1)
    thread = server.start_background()
    client = ServiceClient(server.host, server.port, timeout=60)
    yield server, client
    client.close()
    server.stop_background(thread)


def _cases():
    cases = []
    for setup in SETUPS:
        for workload in WORKLOAD_SAMPLE:
            cases.append(pytest.param(
                build_compile_request(workload=workload, setup=setup,
                                      **FAST),
                id=f"{workload}-{setup}"))
    for seed in FUZZ_SEEDS:
        text = format_function(generate_fuzz_function(seed))
        cases.append(pytest.param(
            build_compile_request(text=text, args=[5], **FAST),
            id=f"fuzz{seed}-remapping"))
    return cases


@pytest.mark.parametrize("request_doc", _cases())
def test_direct_cold_and_warm_are_byte_identical(served, request_doc):
    _server, client = served
    envelope, direct_bytes = compile_local(request_doc)
    assert envelope["ok"], envelope
    cold = client.compile_request(request_doc)
    warm = client.compile_request(request_doc)
    assert cold.status == warm.status == 200
    assert (cold.cache, warm.cache) == ("miss", "hit")
    assert cold.body == direct_bytes
    assert warm.body == direct_bytes
    # the simulated checksum survives the trip intact — same execution
    assert warm.envelope["result"]["checksum"] == \
        envelope["result"]["checksum"]


def test_warm_hit_skips_the_allocator(served, monkeypatch):
    """ISSUE acceptance: a warm request must not invoke the pipeline."""
    import repro.regalloc.pipeline as pipeline

    server, client = served
    request_doc = build_compile_request(workload="bitcount", **FAST)
    cold = client.compile_request(request_doc)
    assert cold.status == 200 and cold.cache == "miss"
    hits_before = server.metrics.snapshot()["store_hits"]

    def boom(*_args, **_kwargs):
        raise AssertionError("run_setup invoked on a warm hit")

    # jobs=1 executes compiles in-process, so this would detonate on any
    # allocator call; _compile resolves run_setup at call time
    monkeypatch.setattr(pipeline, "run_setup", boom)
    warm = client.compile_request(request_doc)
    assert warm.status == 200 and warm.cache == "hit"
    assert warm.body == cold.body
    assert server.metrics.snapshot()["store_hits"] == hits_before + 1


def test_artifacts_survive_a_server_restart(served, tmp_path):
    """The store outlives the process: a fresh server over the same root
    serves its very first request warm."""
    server, client = served
    request_doc = build_compile_request(workload="dijkstra", **FAST)
    first = client.compile_request(request_doc)
    assert first.status == 200

    reborn = ServiceServer("127.0.0.1", 0,
                           store=ArtifactStore(server.store.root),
                           jobs=1)
    thread = reborn.start_background()
    try:
        fresh_client = ServiceClient(reborn.host, reborn.port, timeout=60)
        reply = fresh_client.compile_request(request_doc)
        assert reply.status == 200 and reply.cache == "hit"
        assert reply.body == first.body
        fresh_client.close()
    finally:
        reborn.stop_background(thread)


def test_text_and_workload_sources_share_one_artifact(served):
    """Content addressing sees through the source spelling: a workload
    name and its formatted assembly hash to the same function."""
    from repro.workloads import get_workload

    _server, client = served
    wl = get_workload("qsort")
    by_name = build_compile_request(workload="qsort",
                                    args=list(wl.default_args), **FAST)
    by_text = build_compile_request(text=format_function(wl.function()),
                                    args=list(wl.default_args), **FAST)
    cold = client.compile_request(by_name)
    aliased = client.compile_request(by_text)
    assert cold.status == aliased.status == 200
    assert aliased.cache == "hit"
    assert aliased.body == cold.body
