"""Deterministic parallel engine tests.

The contract under test is the whole point of :mod:`repro.parallel`:
``jobs=1`` and ``jobs>1`` are *bit-identical* — for the primitive map and
for every experiment grid built on it.
"""

import pytest

from repro.parallel import chunked, derive_seed, parallel_map, resolve_jobs
from repro.workloads import MIBENCH


def _square(x):
    return x * x


class TestResolveJobs:
    def test_default_serial(self):
        assert resolve_jobs(1) == 1

    def test_zero_means_all_cores(self):
        import os
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_literal_counts(self):
        assert resolve_jobs(7) == 7

    @pytest.mark.parametrize("bad", [-1, -8, 2.5, "4", None, True])
    def test_invalid_values_raise(self, bad):
        with pytest.raises(ValueError):
            resolve_jobs(bad)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(0, "a", 1) == derive_seed(0, "a", 1)

    def test_key_sensitive(self):
        seeds = {derive_seed(0), derive_seed(1), derive_seed(0, "x"),
                 derive_seed(0, "y"), derive_seed(0, "x", 2)}
        assert len(seeds) == 5


class TestChunked:
    def test_concatenation_preserves_order(self):
        items = list(range(17))
        for n in (1, 2, 3, 5, 16, 17, 40):
            chunks = chunked(items, n)
            assert [x for c in chunks for x in c] == items
            assert len(chunks) <= n

    def test_balanced(self):
        sizes = [len(c) for c in chunked(list(range(10)), 4)]
        assert max(sizes) - min(sizes) <= 1

    def test_empty(self):
        assert chunked([], 4) == []

    def test_bad_chunk_count(self):
        with pytest.raises(ValueError):
            chunked([1, 2], 0)


class TestParallelMap:
    def test_serial_is_plain_map(self):
        assert parallel_map(_square, [1, 2, 3], jobs=1) == [1, 4, 9]

    def test_parallel_matches_serial(self):
        tasks = list(range(20))
        assert parallel_map(_square, tasks, jobs=4) == \
            parallel_map(_square, tasks, jobs=1)

    def test_order_preserved(self):
        assert parallel_map(_square, [3, 1, 2], jobs=2) == [9, 1, 4]

    def test_empty(self):
        assert parallel_map(_square, [], jobs=4) == []


class TestExperimentJobsParity:
    def test_regn_sweep_identical(self):
        from repro.experiments import run_regn_sweep

        kw = dict(workloads=MIBENCH[:2], reg_ns=(8, 12),
                  remap_restarts=2)
        assert run_regn_sweep(jobs=1, **kw).points == \
            run_regn_sweep(jobs=2, **kw).points

    def test_lowend_identical(self):
        """Forked workers and the verify_each_pass path run the one task
        body the serial path runs."""
        from repro.experiments import run_lowend_experiment

        kw = dict(workloads=MIBENCH[:2], setups=("baseline", "remapping"),
                  remap_restarts=2)
        serial = run_lowend_experiment(jobs=1, **kw)
        assert serial.pass_verifier is None
        assert run_lowend_experiment(jobs=2, **kw).rows == serial.rows
        verified = run_lowend_experiment(verify_each_pass=True, **kw)
        assert verified.rows == serial.rows
        assert verified.pass_verifier.clean

    def test_swp_identical(self):
        from repro.experiments import run_swp_experiment

        serial = run_swp_experiment(n_loops=8, jobs=1)
        parallel = run_swp_experiment(n_loops=8, jobs=3)
        assert serial.loops == parallel.loops


def _exit_hard(x):
    import os
    os._exit(13)


def _sleepy_square(x):
    import time
    time.sleep(0.5)
    return x * x


def _pid(_x):
    import os
    return os.getpid()


def _crash_once(payload):
    """Crash the worker on first sight of the sentinel; succeed after."""
    import os
    path, x = payload
    if x < 0:
        if not os.path.exists(path):
            with open(path, "w") as fh:
                fh.write("crashed")
            os._exit(13)
        return -x * -x
    return x * x


class TestComputeChunksize:
    def test_at_least_one(self):
        from repro.parallel import compute_chunksize

        assert compute_chunksize(0, 4) == 1
        assert compute_chunksize(3, 4) == 1
        assert compute_chunksize(5, 0) == 1

    def test_targets_four_chunks_per_worker(self):
        from repro.parallel import compute_chunksize

        # 100 tasks on 2 workers -> 8 target chunks -> size 13
        size = compute_chunksize(100, 2)
        assert 1 <= size <= 100
        n_chunks = -(-100 // size)
        assert 4 <= n_chunks <= 2 * 4 + 2

    def test_never_starves_workers(self):
        from repro.parallel import compute_chunksize

        for n in (2, 7, 33, 128):
            for w in (2, 3, 8):
                size = compute_chunksize(n, w)
                assert -(-n // size) >= min(n, w)


class TestWorkerPool:
    def test_pool_reuse_across_maps(self, monkeypatch):
        """One pool services many map calls on the same executor — the
        fleet property the whole PR exists for."""
        import os

        from repro.parallel import WorkerPool

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        with WorkerPool(2) as pool:
            first = pool.map(_square, list(range(8)))
            executor = pool._executor
            assert executor is not None
            for _ in range(3):
                assert pool.map(_square, list(range(8))) == first
                assert pool._executor is executor
            stats = pool.stats()
            assert stats["tasks_dispatched"] == 32
            assert stats["live"] == 1

    def test_close_then_reuse(self, monkeypatch):
        import os

        from repro.parallel import WorkerPool

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        pool = WorkerPool(2)
        assert pool.map(_square, [1, 2, 3, 4]) == [1, 4, 9, 16]
        pool.close()
        assert pool.stats()["live"] == 0
        # a closed pool is cold, not dead: the next map re-creates it
        assert pool.map(_square, [5, 6, 7, 8]) == [25, 36, 49, 64]
        pool.close()
        pool.close()  # idempotent

    def test_single_core_falls_back_to_serial(self, monkeypatch):
        import os

        from repro.parallel import WorkerPool

        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        pool = WorkerPool(8)
        assert pool.max_workers == 1
        assert pool.map(_square, list(range(6))) == [x * x for x in range(6)]
        assert pool.stats()["live"] == 0  # never spawned a process

    def test_single_task_stays_serial(self, monkeypatch):
        import os

        from repro.parallel import WorkerPool

        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        pool = WorkerPool(4)
        assert pool.map(_square, [9]) == [81]
        assert pool.stats()["live"] == 0

    def test_warm_spawns_workers(self, monkeypatch):
        import os

        from repro.parallel import WorkerPool

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        with WorkerPool(2) as pool:
            assert pool.warm() == 2
            assert pool.stats()["live"] == 1

    def test_warm_serial_pool_is_noop(self, monkeypatch):
        import os

        from repro.parallel import WorkerPool

        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        pool = WorkerPool(4)
        assert pool.warm() == 0
        assert pool.stats()["live"] == 0

    def test_crash_recovery_retries_batch(self, monkeypatch, tmp_path):
        """A batch that kills a worker once is retried on a fresh pool
        and still returns results."""
        import os

        from repro.parallel import WorkerPool

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        sentinel = str(tmp_path / "crashed-once")
        with WorkerPool(2) as pool:
            tasks = [(sentinel, x) for x in (1, 2, -3, 4)]
            assert pool.map(_crash_once, tasks, chunksize=1) == \
                [1, 4, 9, 16]

    def test_run_on_a_serial_pool_is_inline(self, monkeypatch):
        import os

        from repro.parallel import WorkerPool

        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        pool = WorkerPool(4)
        assert pool.run(_pid, None) == os.getpid()
        assert pool.stats()["live"] == 0

    def test_run_crash_retried_then_raises(self, monkeypatch, tmp_path):
        """``run`` keeps ``map``'s crash contract: a task that breaks the
        pool once is retried on a fresh pool, one that breaks it twice
        raises, and the pool serves the next task either way."""
        import os

        from repro.parallel import WorkerCrashError, WorkerPool

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        sentinel = str(tmp_path / "crashed-once")
        with WorkerPool(2) as pool:
            assert pool.run(_pid, None) != os.getpid()
            assert pool.run(_crash_once, (sentinel, -3)) == 9
            with pytest.raises(WorkerCrashError):
                pool.run(_exit_hard, 0)
            assert pool.run(_square, 5) == 25

    def test_concurrent_runs_survive_one_crash(self, monkeypatch, tmp_path):
        """Two tasks in flight both see one worker's death; both are
        retried, on the one replacement pool."""
        import concurrent.futures
        import os
        import threading
        import time

        from repro.parallel import WorkerPool

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        built = []

        class CountingExecutor(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            CountingExecutor)
        sentinel = str(tmp_path / "crashed-once")
        results = {}
        with WorkerPool(2) as pool:
            pool.warm()
            slow = threading.Thread(target=lambda: results.update(
                slow=pool.run(_sleepy_square, 4)))
            slow.start()
            time.sleep(0.1)
            results["crash"] = pool.run(_crash_once, (sentinel, -3))
            slow.join(timeout=30)
            assert not slow.is_alive()
            assert os.path.exists(sentinel)
            assert results == {"slow": 16, "crash": 9}
            assert pool.run(_square, 3) == 9
        assert len(built) == 2   # the warmed pool and one replacement

    def test_run_from_many_threads_counts_every_task(self, monkeypatch):
        """More calling threads than workers, with frequent thread
        switches: every result is right and no dispatch count is lost."""
        import os
        import sys
        import threading

        from repro.parallel import WorkerPool

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        results = {}

        def caller(c):
            for x in range(5):
                results[(c, x)] = pool.run(_square, 10 * c + x)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with WorkerPool(2) as pool:
                threads = [threading.Thread(target=caller, args=(c,))
                           for c in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert pool.stats()["tasks_dispatched"] == 40
        finally:
            sys.setswitchinterval(interval)
        assert results == {(c, x): (10 * c + x) ** 2
                           for c in range(8) for x in range(5)}

    def test_persistent_crash_raises_and_pool_survives(self, monkeypatch):
        import os

        from repro.parallel import WorkerCrashError, WorkerPool

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        with WorkerPool(2) as pool:
            with pytest.raises(WorkerCrashError):
                pool.map(_exit_hard, list(range(4)))
            # the poisonous batch must not brick the pool
            assert pool.map(_square, list(range(4))) == [0, 1, 4, 9]


class TestFleet:
    def test_shared_instance(self):
        from repro.parallel import get_fleet

        assert get_fleet(2) is get_fleet(2)

    def test_keyed_by_effective_workers(self, monkeypatch):
        import os

        from repro.parallel import get_fleet

        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        # everything clamps to one worker on a single-core machine
        assert get_fleet(2) is get_fleet(8)

    def test_parallel_map_reuses_fleet(self, monkeypatch):
        import os

        from repro.parallel import get_fleet, parallel_map

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        pool = get_fleet(2)
        before = pool.stats()["tasks_dispatched"]
        assert parallel_map(_square, list(range(8)), jobs=2) == \
            [x * x for x in range(8)]
        assert parallel_map(_square, list(range(8)), jobs=2) == \
            [x * x for x in range(8)]
        assert get_fleet(2) is pool
        assert pool.stats()["tasks_dispatched"] == before + 16

    def test_shutdown_leaves_fleet_usable(self, monkeypatch):
        import os

        from repro.parallel import get_fleet, parallel_map, shutdown_fleet

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        parallel_map(_square, list(range(4)), jobs=2)
        shutdown_fleet()
        assert get_fleet(2).stats()["live"] == 0
        assert parallel_map(_square, list(range(4)), jobs=2) == \
            [0, 1, 4, 9]


class TestAlternativesJobsParity:
    def test_alternatives_identical(self):
        from repro.experiments.alternatives import run_alternatives_study

        kw = dict(workloads=MIBENCH[:2], remap_restarts=2)
        assert run_alternatives_study(jobs=1, **kw).rows == \
            run_alternatives_study(jobs=2, **kw).rows
