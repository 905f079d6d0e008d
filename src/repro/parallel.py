"""Deterministic parallel execution engine.

A process-pool layer used by the experiment harnesses (workload ×
configuration grids), the fuzz harness and the compile service's
dispatchers.  Design rules, in order of
priority:

1. **Bit-identical results.**  ``jobs=1`` and ``jobs>1`` must produce
   exactly the same outputs.  Tasks are therefore pure functions of their
   payloads, randomness is derived *before* the fan-out (or from
   :func:`derive_seed`, which depends only on the task key, never on the
   worker), and results are gathered in submission order.
2. **Serial fallback.**  ``jobs=1`` never touches ``multiprocessing`` —
   it is a plain list comprehension, so single-job runs behave identically
   on platforms without working process pools and under debuggers.  The
   same fallback engages whenever a fan-out could not help: fewer than two
   tasks, or a machine with fewer cores than requested workers (the pool
   never oversubscribes — ``jobs=8`` on a 2-core box runs 2 workers, and
   on a 1-core box runs serially, identically by rule 1).
3. **Workers are a fleet, not a per-call cost.**  Pool spin-up and
   per-task dispatch cost far more than a small task.  :func:`parallel_map`
   therefore draws workers from a process-wide **shared fleet** —
   :class:`WorkerPool` instances created once per process and reused
   across every ``map`` call — and passes a computed ``chunksize``
   (:func:`compute_chunksize`) so many small tasks travel as few
   pickled messages.

The fleet survives worker crashes: a ``map`` or ``run`` that hits a
broken pool discards the dead executor, re-creates it, and retries once
(tasks are pure, so a retry cannot change results).  Work that kills its
workers twice raises :class:`WorkerCrashError` — and the *next* call
still gets a fresh pool, so one poisonous request never bricks a
long-lived server.
"""

from __future__ import annotations

import atexit
import hashlib
import os
import threading
from typing import Callable, Dict, Iterable, List, Optional, Sequence, TypeVar

__all__ = ["resolve_jobs", "derive_seed", "parallel_map", "chunked",
           "compute_chunksize", "WorkerPool", "WorkerCrashError",
           "get_fleet", "shutdown_fleet"]

T = TypeVar("T")
R = TypeVar("R")


class WorkerCrashError(RuntimeError):
    """A task or batch killed its worker processes (twice — once on the
    original pool and once on a fresh retry pool).  The pool itself has
    already been discarded; later calls run on clean workers.
    """


def resolve_jobs(jobs: int) -> int:
    """Normalise a ``--jobs`` value to a concrete worker count.

    ``1`` (the default) means serial; ``0`` means one worker per CPU;
    anything greater is taken literally.  Negative or non-integer values
    raise ``ValueError`` — the CLI renders that through the diagnostics
    machinery.
    """
    if isinstance(jobs, bool) or not isinstance(jobs, int):
        raise ValueError(f"jobs must be an integer, got {jobs!r}")
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0 (0 means all cores), got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def derive_seed(base_seed: int, *key: object) -> int:
    """A deterministic per-task seed from a base seed and a task key.

    Stable across processes, platforms and Python versions (unlike
    ``hash()``, which is salted): the digest of ``repr`` of the whole key
    tuple.  Tasks seeded this way give the same stream no matter which
    worker — or how many workers — ran them.
    """
    digest = hashlib.sha256(repr((base_seed,) + key).encode()).digest()
    return int.from_bytes(digest[:8], "little")


def chunked(items: Sequence[T], n_chunks: int) -> List[List[T]]:
    """Split ``items`` into at most ``n_chunks`` contiguous, balanced runs.

    Concatenating the chunks reproduces ``items`` exactly, so order-
    dependent folds over chunked results match the unchunked fold.
    """
    items = list(items)
    if n_chunks <= 0:
        raise ValueError(f"n_chunks must be positive, got {n_chunks}")
    n_chunks = min(n_chunks, len(items)) or 1
    size, extra = divmod(len(items), n_chunks)
    out: List[List[T]] = []
    start = 0
    for i in range(n_chunks):
        end = start + size + (1 if i < extra else 0)
        out.append(items[start:end])
        start = end
    return [c for c in out if c]


def compute_chunksize(n_tasks: int, workers: int) -> int:
    """The ``chunksize`` a pooled map should use for ``n_tasks``.

    Targets four chunks per worker: large enough that per-message pickle
    and queue overhead amortises across tasks, small enough that one slow
    chunk cannot leave the other workers idle for long.  Chunking never
    changes results — ``Executor.map`` preserves submission order
    regardless of chunk boundaries.
    """
    if n_tasks <= 0 or workers <= 0:
        return 1
    size, extra = divmod(n_tasks, workers * 4)
    return max(1, size + (1 if extra else 0))


def _serial_map(fn: Callable[[T], R], tasks: Sequence[T]) -> List[R]:
    """The shared serial fallback: a plain in-process loop."""
    return [fn(t) for t in tasks]


def _worker_warmup() -> int:
    """No-op task used to force worker processes to actually spawn."""
    return os.getpid()


class WorkerPool:
    """A persistent, crash-tolerant process pool with the
    :func:`parallel_map` contract: ordered, deterministic, bit-identical
    to serial execution.

    The executor is created lazily on the first multi-task ``map`` or
    pooled ``run`` (or eagerly via :meth:`warm`) and **reused across calls** — the whole
    point of a fleet.  ``jobs=1``, single-task maps, and single-core
    machines never touch ``multiprocessing`` at all.

    Lifecycle properties:

    * **Re-creatable after close.**  :meth:`close` releases the workers;
      a later ``map`` transparently builds a fresh pool.  A closed pool
      is therefore never an error, just a cold one.
    * **Crash recovery.**  A batch or task that breaks the pool (a
      worker segfault, ``os._exit``, OOM kill) is retried once on a
      fresh pool; if it breaks that one too, :class:`WorkerCrashError`
      is raised and the pool is left cold-but-usable for the next call.
    * **Fork hygiene.**  A pool object inherited through ``os.fork`` in
      a worker discards the parent's executor instead of deadlocking on
      its queues.
    """

    def __init__(self, jobs: int = 1) -> None:
        self.jobs = resolve_jobs(jobs)
        self._executor = None
        self._tasks_dispatched = 0
        self._pid = os.getpid()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # sizing
    # ------------------------------------------------------------------

    @property
    def max_workers(self) -> int:
        """Worker ceiling: requested jobs clamped to the machine's cores
        (oversubscribing a CPU-bound pool only adds scheduler churn)."""
        return max(1, min(self.jobs, os.cpu_count() or 1))

    # ------------------------------------------------------------------
    # executor lifecycle
    # ------------------------------------------------------------------

    def _ensure_executor(self):
        """The live executor, (re)created as needed — after ``close``,
        after a crash, or in a forked child."""
        with self._lock:
            if self._pid != os.getpid():
                # forked child: the inherited executor's queues belong to
                # the parent; using them would deadlock
                self._executor = None
                self._tasks_dispatched = 0
                self._pid = os.getpid()
            if self._executor is None:
                from concurrent.futures import ProcessPoolExecutor

                self._executor = ProcessPoolExecutor(
                    max_workers=self.max_workers)
            return self._executor

    def _discard_executor(self, broken) -> None:
        """Drop the executor that broke; the next call starts fresh.  A
        concurrent caller that saw the same breakage may already have
        replaced it, and the replacement stays."""
        with self._lock:
            if self._executor is not broken:
                return
            self._executor = None
            self._tasks_dispatched = 0
        broken.shutdown(wait=False, cancel_futures=True)

    def warm(self) -> int:
        """Eagerly spawn the workers by running one no-op task each
        (servers call this before accepting traffic, so no request pays
        process start-up).  The no-op imports nothing and fills no cache.
        Returns the number of workers spawned; 0 when the pool runs
        serially."""
        if self.max_workers <= 1:
            return 0
        executor = self._ensure_executor()
        futures = [executor.submit(_worker_warmup)
                   for _ in range(self.max_workers)]
        for f in futures:
            f.result()
        return self.max_workers

    # ------------------------------------------------------------------
    # running tasks
    # ------------------------------------------------------------------

    def map(self, fn: Callable[[T], R], tasks: Iterable[T],
            chunksize: Optional[int] = None) -> List[R]:
        """Map ``fn`` over ``tasks`` in order, reusing the fleet.

        ``fn`` and every payload must be picklable (module-level
        function, plain-data arguments).  The result list is identical
        for every worker count — parallelism never changes outputs, only
        wall-clock time.
        """
        task_list = list(tasks)
        workers = min(self.max_workers, len(task_list))
        if workers <= 1 or len(task_list) <= 1:
            return _serial_map(fn, task_list)
        if chunksize is None:
            chunksize = compute_chunksize(len(task_list), workers)
        return self._retrying(
            lambda executor: list(executor.map(fn, task_list,
                                               chunksize=chunksize)),
            len(task_list))

    def run(self, fn: Callable[[T], R], task: T) -> R:
        """``fn(task)`` on one pool worker, inline when the pool is
        serial.  Several threads may call this at once to keep up to
        :attr:`max_workers` tasks in flight; it blocks only its caller."""
        if self.max_workers <= 1:
            return fn(task)
        return self._retrying(
            lambda executor: executor.submit(fn, task).result(), 1)

    def _retrying(self, call: Callable[[object], R], n_tasks: int) -> R:
        """``call(executor)`` running ``n_tasks`` tasks, retried once on a
        fresh pool if it breaks the pool (tasks are pure, so a retry
        cannot change results)."""
        for retries_left in (1, 0):
            executor = self._ensure_executor()
            try:
                result = call(executor)
            except _broken_pool_errors() as exc:
                self._discard_executor(executor)
                if not retries_left:
                    raise WorkerCrashError(
                        f"{n_tasks} task(s) crashed the worker pool twice "
                        f"({type(exc).__name__}); the pool has been "
                        "discarded and the next call will run on fresh "
                        "workers") from exc
            else:
                with self._lock:
                    self._tasks_dispatched += n_tasks
                return result

    # ------------------------------------------------------------------
    # introspection / shutdown
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Counters for ``/statsz`` and tests: worker ceiling, liveness,
        dispatched task total."""
        return {
            "jobs": self.jobs,
            "max_workers": self.max_workers,
            "live": int(self._executor is not None),
            "tasks_dispatched": self._tasks_dispatched,
        }

    def close(self) -> None:
        """Release the workers (idempotent).  The pool stays usable: a
        later ``map`` lazily re-creates the executor."""
        with self._lock:
            executor = self._executor
            self._executor = None
            self._tasks_dispatched = 0
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _broken_pool_errors():
    """The exception types that mean "the pool's workers died"."""
    from concurrent.futures import BrokenExecutor
    from concurrent.futures.process import BrokenProcessPool

    return (BrokenExecutor, BrokenProcessPool, EOFError)


# ----------------------------------------------------------------------
# the shared fleet
# ----------------------------------------------------------------------

_fleet: Dict[int, WorkerPool] = {}
_fleet_lock = threading.Lock()


def get_fleet(jobs: int) -> WorkerPool:
    """The process-wide shared :class:`WorkerPool` for a worker count.

    Fleets are keyed by their *effective* (core-clamped) worker count and
    live until :func:`shutdown_fleet` or interpreter exit, so every
    ``parallel_map`` in a CLI invocation — hundreds of remap fan-outs in
    one experiment grid — reuses the same warm workers instead of paying
    pool spin-up per call.
    """
    workers = max(1, min(resolve_jobs(jobs), os.cpu_count() or 1))
    with _fleet_lock:
        pool = _fleet.get(workers)
        if pool is None or pool._pid != os.getpid():
            pool = WorkerPool(workers)
            _fleet[workers] = pool
        return pool


def shutdown_fleet() -> None:
    """Close every shared fleet pool (idempotent; re-usable afterwards —
    pools re-create their executors lazily)."""
    with _fleet_lock:
        pools = list(_fleet.values())
    for pool in pools:
        if pool._pid == os.getpid():
            pool.close()


atexit.register(shutdown_fleet)


def parallel_map(fn: Callable[[T], R], tasks: Iterable[T],
                 jobs: int = 1,
                 chunksize: Optional[int] = None) -> List[R]:
    """Map ``fn`` over ``tasks``, preserving task order in the results.

    With ``jobs=1`` (or fewer than two tasks, or a single-core machine)
    this is a serial loop; otherwise it fans out over the **shared
    fleet** (:func:`get_fleet`) with a computed ``chunksize``, so
    repeated calls in one process reuse warm workers.  The result list
    is identical in either mode — parallelism never changes outputs,
    only wall-clock time.
    """
    jobs = resolve_jobs(jobs)
    task_list = list(tasks)
    if jobs == 1 or len(task_list) <= 1:
        return _serial_map(fn, task_list)
    return get_fleet(jobs).map(fn, task_list, chunksize=chunksize)
