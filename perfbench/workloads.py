"""The three benchmark workloads: inputs, ops and output checks.

Each workload builds its inputs from the benchmark seed in :meth:`setup`
(the program sees only the generated inputs) and runs its fixed input
block as a *pass* of ops, the same ops in every pass.  Ops carry
``counts`` — exact integers summed per pass into ``sim_cycles``,
``code_size``, spill instructions and ``setlr`` repairs — and an
``output`` for :meth:`check`, which runs outside the timed window.

* :class:`LowEnd` and :class:`Swp` are serial: one op at a time.
* :class:`Serve` is a closed loop of two clients against an in-process
  compile server; each pass starts from an empty store and cold caches.

The timed window (``perfbench/run.py``) samples the host's speed between
the ops of a serial workload and between the passes of ``serve``.
"""

from __future__ import annotations

import contextlib
import random
import re
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

__all__ = ["OpRecord", "LowEnd", "Swp", "Serve", "WORKLOADS",
           "reference_return", "parse_allocated", "count_out_of_range"]

COUNT_KEYS = ("cycles", "instrs", "spills", "setlr")


@dataclass
class OpRecord:
    """One timed op."""

    key: Hashable            # the input: equal keys mean equal inputs
    seq: int                 # position in the run (the trace's op id)
    start: float
    end: float
    ok: bool
    counts: Optional[Dict[str, int]] = None
    output: object = None
    error: Optional[str] = None
    cache: Optional[str] = None      # serve: "hit" / "miss"
    pass_no: int = 0
    cpu_start: float = 0.0           # process CPU clock at start and end
    cpu_end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


def clear_caches() -> None:
    """Forget what earlier work left in the program's memo caches."""
    from repro.analysis.cache import clear_analysis_cache
    from repro.machine.reuse import clear_recorded_runs

    clear_analysis_cache()
    clear_recorded_runs()


def analysis_counts() -> Dict[str, int]:
    """Hits and misses of the program's analysis memo cache so far."""
    from repro.analysis.cache import analysis_cache_stats

    stats = analysis_cache_stats()
    return {"hits": stats["hits"], "misses": stats["misses"]}


class _Serial:
    """A workload whose ops run one at a time, the same list every pass."""

    serial = True

    def analysis_counts(self) -> Dict[str, int]:
        return analysis_counts()

    def run_pass(self, pass_no: int, seq0: int, tracer=None,
                 between=None) -> List[OpRecord]:
        """Every op once; ``between()``, if given, is called after each
        op, outside its timing."""
        records = []
        for seq, (key, payload) in enumerate(self.pass_ops(), seq0):
            cpu_start = time.process_time()
            start = time.perf_counter()
            try:
                if tracer is None:
                    counts, output = self.run(payload)
                else:
                    with tracer.span("op", seq):
                        counts, output = self.run(payload)
                rec = OpRecord(key, seq, start, time.perf_counter(), True,
                               counts, output, pass_no=pass_no)
            except Exception as exc:  # noqa: BLE001 - a failed op, counted
                rec = OpRecord(key, seq, start, time.perf_counter(), False,
                               error=f"{type(exc).__name__}: {exc}",
                               pass_no=pass_no)
            rec.cpu_start, rec.cpu_end = cpu_start, time.process_time()
            records.append(rec)
            if between is not None:
                between()
        return records

    def sampling(self, tick):
        """While open, ``tick()`` is also called inside long ops."""
        return contextlib.nullcontext()

    def close(self) -> None:
        pass


def reference_return(fn, args: Sequence[int]) -> int:
    """Return value of ``fn`` under the reference interpreter engine,
    recording nothing — the oracle every output check compares with."""
    from repro.ir.interp import Interpreter

    return Interpreter(engine="reference", record_trace=False).run(
        fn, tuple(args)).return_value


def parse_allocated(text: str):
    """Parse a service response's ``allocation.code``.

    Blocks that SSA destruction splits off critical edges are named
    ``pred.succ.crit``, which the assembly grammar's labels (``\\w+``) do
    not accept, so dotted labels are renamed first (dots become
    underscores; register class suffixes such as ``r3.fp`` are left
    alone because only label names are rewritten)."""
    from repro.ir import parse_function

    labels = re.findall(r"^\s*([\w.]+):\s*$", text, flags=re.M)
    for name in sorted({n for n in labels if "." in n}, key=len,
                       reverse=True):
        text = re.sub(rf"(?<![\w.]){re.escape(name)}(?![\w.])",
                      name.replace(".", "_"), text)
    return parse_function(text)


def count_out_of_range(seq: Sequence[int], perm: Sequence[int],
                       reg_n: int, diff_n: int) -> int:
    """Out-of-range register differences of a cyclic kernel access
    sequence under ``perm``: an independent recount of what
    ``repro.swp.diffswp`` reports (the kernel repeats, so the first access
    is measured from the last)."""
    if not seq:
        return 0
    last = perm[seq[-1]]
    count = 0
    for r in seq:
        if (perm[r] - last) % reg_n >= diff_n:
            count += 1
        last = perm[r]
    return count


# ----------------------------------------------------------------------
# lowend: the Fig. 11-14 grid
# ----------------------------------------------------------------------


@dataclass
class _Kernel:
    name: str
    fn: object
    args: Tuple[int, ...]
    recorded: object
    freq: Optional[Dict[str, float]]


class LowEnd(_Serial):
    """MiBench kernels x paper setups with ``run_lowend_experiment``'s
    defaults; one op is ``run_setup`` + ``interpret_or_derive`` +
    ``LowEndTimingModel.time``."""

    name = "lowend"

    def __init__(self, seed: int, n_kernels: Optional[int] = None) -> None:
        from repro.regalloc.pipeline import PAPER_SETUPS

        self.seed = seed
        self.n_kernels = n_kernels
        self.setups = PAPER_SETUPS
        self.kernels: List[_Kernel] = []

    def setup(self) -> None:
        import repro.machine as machine
        from repro.analysis.profile import (block_frequencies_from_counts,
                                            profile_block_frequencies)
        from repro.machine.lowend import LowEndTimingModel
        from repro.machine.spec import LOWEND
        from repro.workloads.mibench import MIBENCH

        self.timing = LowEndTimingModel(LOWEND)
        self.kernels = []
        for w in MIBENCH[:self.n_kernels]:
            fn = w.function()
            args = tuple(w.default_args)
            recorded = machine.record_reference_run(fn, args)
            if recorded is not None and recorded.block_instr_counts:
                freq = block_frequencies_from_counts(
                    fn, recorded.block_instr_counts)
            else:
                freq = profile_block_frequencies(fn, args)
            self.kernels.append(_Kernel(w.name, fn, args, recorded, freq))

    def pass_ops(self) -> List[Tuple[Hashable, object]]:
        return [((k.name, s), (k, s)) for k in self.kernels
                for s in self.setups]

    def run(self, payload) -> Tuple[Dict[str, int], object]:
        import repro.machine as machine
        import repro.regalloc.pipeline as pipeline

        kernel, setup = payload
        prog = pipeline.run_setup(
            kernel.fn, setup, base_k=8, reg_n=12, diff_n=8,
            remap_restarts=50, use_ilp=True, verify=True, freq=kernel.freq,
            remap_seed=self.seed)
        result = machine.interpret_or_derive(prog.final_fn, kernel.args,
                                             kernel.recorded)
        report = self.timing.time(result.columnar
                                  if result.columnar is not None
                                  else result.trace)
        counts = {"cycles": report.cycles, "instrs": prog.n_instructions,
                  "spills": prog.n_spills, "setlr": prog.n_setlr}
        return counts, prog.final_fn

    def check(self, records: List[OpRecord]) -> Dict[int, str]:
        """Re-interpret each distinct allocated function with the
        reference engine; its return value must equal the input's."""
        from repro.analysis.cache import fingerprint_digest

        kernels = {k.name: k for k in self.kernels}
        expected: Dict[str, int] = {}
        verdicts: Dict[Tuple[Hashable, str], Optional[str]] = {}
        failures: Dict[int, str] = {}
        for rec in records:
            if not rec.ok:
                continue
            name, setup = rec.key
            kernel = kernels[name]
            if name not in expected:
                expected[name] = reference_return(kernel.fn, kernel.args)
            vkey = (rec.key, fingerprint_digest(rec.output))
            if vkey not in verdicts:
                got = reference_return(rec.output, kernel.args)
                verdicts[vkey] = None if got == expected[name] else (
                    f"{name}/{setup}: allocated code returns {got}, "
                    f"input returns {expected[name]}")
            if verdicts[vkey] is not None:
                failures[rec.seq] = verdicts[vkey]
        return failures


# ----------------------------------------------------------------------
# swp: the Section 10.2 loop population
# ----------------------------------------------------------------------

#: the spilling loop every swp pass holds: index 61 of the paper's loop
#: population (``generate_loop_population()``, 1928 loops at seed 2005),
#: the cheapest of its first four loops that spill at 32 registers
SPILLING_LOOPS = (61,)


class Swp(_Serial):
    """A seeded draw of non-spilling loops from the paper population plus
    a fixed spilling loop; one op is one loop through every RegN with
    ``run_swp_experiment``'s defaults."""

    name = "swp"

    def __init__(self, seed: int, n_plain: int = 1650,
                 reg_ns: Optional[Sequence[int]] = None) -> None:
        from repro.experiments.swp import REG_NS

        self.seed = seed
        self.n_plain = n_plain
        self.reg_ns = tuple(reg_ns or REG_NS)
        self.loops: list = []

    def setup(self) -> None:
        from repro.workloads.spec_loops import generate_loop_population

        population = generate_loop_population()
        spilling = [population[i] for i in SPILLING_LOOPS]
        plain = [s for s in population if not s.big]
        rng = random.Random(self.seed)
        loops = rng.sample(plain, self.n_plain) + spilling
        rng.shuffle(loops)
        self.loops = loops

    def pass_ops(self) -> List[Tuple[Hashable, object]]:
        return [(spec.name, spec) for spec in self.loops]

    @contextlib.contextmanager
    def sampling(self, tick):
        """``tick()`` after each ``encode_kernel`` call of the experiment:
        the spilling loop's op runs for seconds, one call per RegN above
        32, and the host's speed changes within it."""
        import repro.experiments.swp as swp_experiment

        original = swp_experiment.encode_kernel

        def encode_kernel(*args, **kwargs):
            try:
                return original(*args, **kwargs)
            finally:
                tick()

        swp_experiment.encode_kernel = encode_kernel
        try:
            yield
        finally:
            swp_experiment.encode_kernel = original

    def run(self, spec) -> Tuple[Dict[str, int], object]:
        import repro.experiments.swp as swp_experiment

        exp = swp_experiment.run_swp_experiment(
            population=[spec], reg_ns=self.reg_ns, jobs=1)
        if len(exp.loops) != 1:
            raise RuntimeError(f"{spec.name}: loop could not be scheduled")
        loop = exp.loops[0]
        counts = {"cycles": sum(loop.cycles.values()),
                  "instrs": sum(loop.code_ops.values()),
                  "spills": sum(loop.spills.values()),
                  "setlr": sum(loop.setlr.values())}
        return counts, loop

    def check(self, records: List[OpRecord]) -> Dict[int, str]:
        """For each distinct loop that spilled at 32 registers, encode its
        kernels again: every permutation must be a bijection, and an
        independent recount of its out-of-range differences must give
        the reported ``setlr`` count of the timed op."""
        failures: Dict[int, str] = {}
        optimized = [r for r in records if r.ok and r.output.optimized]
        spilling = {r.key for r in optimized}
        if len(spilling) != len(SPILLING_LOOPS):
            msg = (f"expected {len(SPILLING_LOOPS)} spilling loop(s) per "
                   f"pass, found {sorted(spilling)}")
            for r in optimized:
                failures[r.seq] = msg
        specs = {spec.name: spec for spec in self.loops}
        verdicts: Dict[Hashable, Optional[str]] = {}
        for rec in optimized:
            if rec.key not in verdicts:
                verdicts[rec.key] = self._check_loop(specs[rec.key],
                                                     rec.output)
            if verdicts[rec.key] is not None:
                failures[rec.seq] = verdicts[rec.key]
        return failures

    def _check_loop(self, spec, loop) -> Optional[str]:
        from repro.machine.spec import VLIW
        from repro.swp.diffswp import encode_kernel, kernel_access_sequence
        from repro.swp.modulo import ScheduleError
        from repro.swp.rotalloc import allocate_kernel

        for reg_n in self.reg_ns:
            if reg_n == 32:
                continue
            try:
                alloc = allocate_kernel(spec.ddg, reg_n, VLIW)
            except ScheduleError:
                if loop.setlr[reg_n] != 0:
                    return f"{spec.name}@{reg_n}: unschedulable but setlr"
                continue
            rep = encode_kernel(alloc, 32, restarts=4)
            if sorted(rep.permutation) != list(range(reg_n)):
                return f"{spec.name}@{reg_n}: permutation is no bijection"
            recount = count_out_of_range(kernel_access_sequence(alloc),
                                         rep.permutation, reg_n, 32)
            if recount != rep.n_out_of_range_after:
                return (f"{spec.name}@{reg_n}: recount {recount} != "
                        f"reported {rep.n_out_of_range_after}")
            if rep.n_setlr + rep.enable_overhead != loop.setlr[reg_n]:
                return (f"{spec.name}@{reg_n}: timed op reported "
                        f"{loop.setlr[reg_n]} setlr, re-encoding gives "
                        f"{rep.n_setlr + rep.enable_overhead}")
        return None

# ----------------------------------------------------------------------
# serve: the compile service
# ----------------------------------------------------------------------


@dataclass
class _Function:
    text: str
    args: List[int]
    requests: List[Dict[str, object]] = field(default_factory=list)


class Serve:
    """A closed loop of two clients against an in-process ``ServiceServer``
    (``jobs=1``, throwaway store).  Each client walks its own functions;
    every request of a function goes to all registered setups and is sent
    ``sends`` times, so the first send is a store miss and the rest hit.
    A pass is the first ``n_fixed`` functions, started on an empty store
    and cold memo caches, so every pass replays the same traffic."""

    name = "serve"
    serial = False
    clients = 2
    #: sends per request.  With two, exactly half the ops would be hits
    #: and the median would sit on the hit/miss boundary, jumping between
    #: the two modes; with three, p50 falls among the hits and p90 among
    #: the misses.
    sends = 3

    def __init__(self, seed: int, store_dir: str, n_fixed: int = 12,
                 n_local: int = 2) -> None:
        if n_fixed % self.clients:
            raise ValueError(f"n_fixed must split evenly over "
                             f"{self.clients} clients, got {n_fixed}")
        self.seed = seed
        self.store_dir = store_dir
        self.n_fixed = n_fixed
        self.n_local = n_local
        self.functions: List[_Function] = []
        self.server = None
        self._cleared = {"hits": 0, "misses": 0}   # counted before a clear

    def analysis_counts(self) -> Dict[str, int]:
        """Analysis cache hits and misses, including those the per-pass
        cache clears reset."""
        now = analysis_counts()
        return {k: self._cleared[k] + now[k] for k in now}

    def setup(self) -> None:
        from repro.service.client import ServiceClient
        from repro.service.server import ServiceServer
        from repro.service.store import ArtifactStore

        self.generate()
        self.tmp = tempfile.TemporaryDirectory(prefix="store-",
                                               dir=self.store_dir)
        self.server = ServiceServer("127.0.0.1", 0,
                                    store=ArtifactStore(self.tmp.name),
                                    jobs=1)
        self.thread = self.server.start_background()
        self.client = ServiceClient(self.server.host, self.server.port)

    def generate(self) -> None:
        """The fuzz functions and their requests to every setup.

        Function ``i`` is ``generate_fuzz_function(i)``, the same in every
        run: compile cost varies several-fold between fuzz functions, so a
        seeded draw of functions moved throughput and the fixed-block
        counts by 6-8% from seed to seed.  The seed is the requests' remap
        seed, as it is ``lowend``'s."""
        from repro.fuzz.gen import generate_fuzz_function
        from repro.ir import format_function
        from repro.regalloc.pipeline import SETUPS
        from repro.service import protocol

        self.functions = []
        for i in range(self.n_fixed):
            fn = generate_fuzz_function(i, name=f"serve{i}")
            f = _Function(format_function(fn), [1 + i % 63])
            f.requests = [protocol.build_compile_request(
                text=f.text, setup=setup, args=f.args, restarts=2,
                seed=self.seed) for setup in SETUPS]
            self.functions.append(f)

    def batch_stats(self) -> Tuple[int, int]:
        snap = self.server.metrics.snapshot()
        return snap["batches"], snap["batched_requests"]

    def _client_ops(self, c: int):
        for i in range(c, self.n_fixed, self.clients):
            for j, request in enumerate(self.functions[i].requests):
                for k in range(self.sends):
                    yield (i, j, k), request

    def sampling(self, tick):
        return contextlib.nullcontext()

    def run_pass(self, pass_no: int, seq0: int, tracer=None,
                 between=None) -> List[OpRecord]:
        """Both clients through their functions; every op, ordered by
        start time.

        The clients take each step together: both send a miss, then both
        send their hits.  The misses share one batch, and no hit races a
        compile for the interpreter lock; a hit that did took 3-13 ms
        depending on the host's speed, which moved the median by 59% from
        run to run.  ``between()``, if given, is called at each step,
        while both clients wait and no request is in flight."""
        self.server.store.clear()
        for k, v in analysis_counts().items():
            self._cleared[k] += v
        clear_caches()
        records: List[OpRecord] = []
        errors: List[BaseException] = []
        step = threading.Barrier(self.clients, action=between)

        def client(c: int) -> None:
            try:
                for key, request in self._client_ops(c):
                    if key[2] < 2:   # before the miss and before the hits
                        step.wait(timeout=600)
                    records.append(self._send(key, request, pass_no,
                                              tracer))
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                step.abort()
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(c,),
                                    name=f"perfbench-client-{c}")
                   for c in range(self.clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]
        records.sort(key=lambda r: r.start)
        for seq, rec in enumerate(records, seq0):
            rec.seq = seq
        return records

    def _send(self, key, request, pass_no: int, tracer) -> OpRecord:
        cpu_start = time.process_time()
        start = time.perf_counter()
        try:
            reply = self.client.compile_request(request)
        except OSError as exc:
            return OpRecord(key, 0, start, time.perf_counter(), False,
                            error=f"{type(exc).__name__}: {exc}",
                            pass_no=pass_no, cpu_start=cpu_start,
                            cpu_end=time.process_time())
        end = time.perf_counter()
        rec = OpRecord(key, 0, start, end, reply.ok, output=reply.body,
                       cache=reply.cache, pass_no=pass_no,
                       cpu_start=cpu_start, cpu_end=time.process_time())
        if not reply.ok:
            rec.error = f"status {reply.status}: " \
                        f"{reply.envelope.get('error')}"
        elif key[2] == 0:   # the miss: one count per request
            rec.counts = _serve_counts(reply.envelope)
        if tracer is not None:
            tracer.record("op", start, end, reply.headers.get("x-repro-key"))
        return rec

    def check(self, records: List[OpRecord]) -> Dict[int, str]:
        """Every send of a request in a pass returns the same bytes (the
        first a miss, the rest hits); the first ``n_local`` functions'
        bytes equal ``compile_local``'s; every distinct allocated
        function, parsed back from the response, returns what its input
        returns under the reference interpreter."""
        sends: Dict[Hashable, List[OpRecord]] = {}
        for rec in records:
            sends.setdefault((rec.pass_no,) + rec.key[:2], []).append(rec)
        expected: Dict[int, int] = {}
        verdicts: Dict[Tuple[Hashable, bytes], Optional[str]] = {}
        failures: Dict[int, str] = {}
        for (_, i, j), group in sends.items():
            f = self.functions[i]
            first = group[0]
            pattern = [r.cache for r in group]
            if pattern != ["miss"] + ["hit"] * (len(group) - 1):
                problem = f"{(i, j)}: cache pattern {pattern}"
            elif any(r.output != first.output for r in group[1:]):
                problem = f"{(i, j)}: hit bytes differ from miss bytes"
            else:
                vkey = ((i, j), first.output)
                if vkey not in verdicts:
                    verdicts[vkey] = self._check_output(i, j, first.output,
                                                        expected)
                problem = verdicts[vkey]
            if problem is not None:
                for r in group:
                    failures[r.seq] = problem
        return failures

    def _check_output(self, i: int, j: int, body: bytes,
                      expected: Dict[int, int]) -> Optional[str]:
        import json

        from repro.ir import parse_function
        from repro.service.client import compile_local

        f = self.functions[i]
        if i < self.n_local and compile_local(f.requests[j])[1] != body:
            return f"{(i, j)}: compile_local bytes differ"
        if i not in expected:
            expected[i] = reference_return(parse_function(f.text), f.args)
        code = json.loads(body)["result"]["allocation"]["code"]
        got = reference_return(parse_allocated(code), f.args)
        if got != expected[i]:
            return (f"{(i, j)}: allocated code returns {got}, input "
                    f"returns {expected[i]}")
        return None

    def close(self) -> None:
        if self.server is not None:
            self.server.stop_background(self.thread)
            self.server = None
            self.tmp.cleanup()


def _serve_counts(envelope: Dict[str, object]) -> Dict[str, int]:
    result = envelope["result"]
    allocation = result["allocation"]
    return {"cycles": result["cycles"]["cycles"],
            "instrs": allocation["instructions"],
            "spills": allocation["spills"], "setlr": allocation["setlr"]}


WORKLOADS = {"lowend": LowEnd, "swp": Swp, "serve": Serve}
