"""The program's layers as the traced run sees them.

:func:`install` wraps each layer's entry point at the name its caller
looks up, so one traced op yields a span tree such as::

    op
      regalloc.pipeline.run_setup
        analysis.prewarm
        regalloc.diff_coalesce
          regalloc.optimal_spill      (decide_residence)
          regalloc.iterated
          regalloc.moves
        regalloc.remap  x2
        encoding.encoder  x3
        encoding.setlr_elim
        encoding.verifier
      machine.reuse.derive
      machine.lowend.timing

:func:`layer_metrics` turns the spans and counters into the ``per_layer``
metrics of ``BENCHMARK.json`` (the names in :data:`PER_LAYER`).
"""

from __future__ import annotations

import threading
from collections import defaultdict
from typing import Dict, List, Tuple

from perfbench.tracing import Span, Tracer, self_times

__all__ = ["PER_LAYER", "install", "layer_metrics", "coverage"]

#: every per-layer metric: (name, unit, better)
PER_LAYER: List[Tuple[str, str, str]] = [
    ("regalloc.remap.self_s", "s", "lower"),
    ("regalloc.remap.calls", "count", "lower"),
    ("regalloc.remap.kept_ratio", "ratio", "higher"),
    ("regalloc.remap.cost_saved", "cost", "higher"),
    ("regalloc.iterated.self_s", "s", "lower"),
    ("regalloc.iterated.calls", "count", "lower"),
    ("regalloc.optimal_spill.self_s", "s", "lower"),
    ("regalloc.optimal_spill.calls", "count", "lower"),
    ("regalloc.diff_coalesce.self_s", "s", "lower"),
    ("regalloc.diff_coalesce.calls", "count", "lower"),
    ("regalloc.ssa_spill.self_s", "s", "lower"),
    ("regalloc.ssa_spill.calls", "count", "lower"),
    ("regalloc.spill_instrs", "instrs", "lower"),
    ("regalloc.moves.self_s", "s", "lower"),
    ("regalloc.moves.saved", "instrs", "higher"),
    ("encoding.encoder.self_s", "s", "lower"),
    ("encoding.encoder.calls", "count", "lower"),
    ("encoding.setlr", "instrs", "lower"),
    ("encoding.setlr_elim.self_s", "s", "lower"),
    ("encoding.setlr_elim.removed", "instrs", "higher"),
    ("encoding.verifier.self_s", "s", "lower"),
    ("analysis.prewarm.self_s", "s", "lower"),
    ("analysis.cache_hit_ratio", "ratio", "higher"),
    ("machine.reuse.record_s", "s", "lower"),
    ("machine.reuse.derive_s", "s", "lower"),
    ("machine.lowend.timing_s", "s", "lower"),
    ("swp.rotalloc.self_s", "s", "lower"),
    ("swp.rotalloc.calls", "count", "lower"),
    ("swp.diffswp.self_s", "s", "lower"),
    ("swp.diffswp.calls", "count", "lower"),
    ("swp.spilling_share", "ratio", "lower"),
    ("service.server.handle_s", "s", "lower"),
    ("service.server.execute_s", "s", "lower"),
    ("service.server.queue_wait_s", "s", "lower"),
    ("service.store.get_s", "s", "lower"),
    ("service.store.put_s", "s", "lower"),
    ("service.store.hit_ratio", "ratio", "higher"),
    ("service.batch_size_mean", "requests", "higher"),
    ("regalloc.pipeline.run_setup.self_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
]

#: span names whose self time is reported as ``<name>_s`` rather than
#: ``<name>.self_s`` (leaf layers: nothing the benchmark wraps runs inside)
_LEAF_SECONDS = ("machine.reuse.record", "machine.reuse.derive",
                 "machine.lowend.timing")


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point; ``tracer.restore()`` undoes it."""
    import repro.analysis.batched as batched
    import repro.encoding.setlr_elim as setlr_elim
    import repro.experiments.swp as swp_experiment
    import repro.machine as machine
    import repro.regalloc.diff_coalesce as diff_coalesce
    import repro.regalloc.moves as moves
    import repro.regalloc.pipeline as pipeline
    import repro.service.protocol as protocol
    import repro.service.server as server
    from repro.machine.lowend import LowEndTimingModel
    from repro.service.store import ArtifactStore

    local = threading.local()   # per-thread: the current run_setup's encodings

    def count_saved_cost(result, args, kwargs, state):
        tracer.add("remap.cost_saved", result.cost_before - result.cost_after)

    def count_moves(result, args, kwargs, state):
        tracer.add("moves.saved", result.instructions_saved)

    def count_removed(result, args, kwargs, state):
        tracer.add("setlr_elim.removed", result.n_removed)

    def note_encoding(result, args, kwargs, state):
        encodings = getattr(local, "encodings", None)
        if encodings is not None:
            encodings.append(result)

    def open_setup(args, kwargs):
        outer = getattr(local, "encodings", None)
        local.encodings = []
        return outer

    def close_setup(prog, args, kwargs, outer):
        candidates, local.encodings = local.encodings, outer
        tracer.add("spill_instrs", prog.n_spills)
        tracer.add("setlr", prog.n_setlr)
        if prog.encoded is not None:
            tracer.add("differential_ops")
            kept = next((i for i, enc in enumerate(candidates)
                         if enc is prog.encoded), 0)
            if kept > 0:   # candidate 0 is the unremapped allocation
                tracer.add("remap.kept")

    keys: Dict[int, str] = {}   # id(normalized request) -> cache key

    def note_key(key, args, kwargs, state):
        keys[id(args[0])] = key

    def count_get(result, args, kwargs, state):
        tracer.add("store.hits" if result is not None else "store.misses")

    wrap = tracer.wrap
    wrap(pipeline, "run_setup", "regalloc.pipeline.run_setup",
         before=open_setup, after=close_setup)
    wrap(pipeline, "differential_remap", "regalloc.remap",
         after=count_saved_cost)
    wrap(pipeline, "iterated_allocate", "regalloc.iterated")
    wrap(diff_coalesce, "iterated_allocate", "regalloc.iterated")
    wrap(pipeline, "optimal_spill_allocate", "regalloc.optimal_spill")
    wrap(diff_coalesce, "decide_residence", "regalloc.optimal_spill")
    wrap(pipeline, "differential_coalesce_allocate", "regalloc.diff_coalesce")
    wrap(pipeline, "ssa_spill_allocate", "regalloc.ssa_spill")
    wrap(pipeline, "resolve_move_runs", "regalloc.moves", after=count_moves)
    wrap(moves, "resolve_move_runs", "regalloc.moves", after=count_moves)
    wrap(pipeline, "encode_function", "encoding.encoder", after=note_encoding)
    wrap(pipeline, "verify_encoding", "encoding.verifier")
    wrap(setlr_elim, "eliminate_redundant_setlr", "encoding.setlr_elim",
         after=count_removed)
    wrap(batched, "prewarm_corpus", "analysis.prewarm")
    wrap(machine, "record_reference_run", "machine.reuse.record")
    wrap(machine, "interpret_or_derive", "machine.reuse.derive")
    wrap(LowEndTimingModel, "time", "machine.lowend.timing")
    wrap(swp_experiment, "allocate_kernel", "swp.rotalloc")
    wrap(swp_experiment, "encode_kernel", "swp.diffswp")
    wrap(protocol, "cache_key", "service.protocol.cache_key", after=note_key)
    wrap(server.ServiceServer, "handle_compile", "service.server.handle",
         op_out=lambda reply: reply[1].get("X-Repro-Key"))
    wrap(server, "execute_request", "service.server.execute",
         op_in=lambda args, kwargs: keys.get(id(args[0])))
    wrap(ArtifactStore, "get", "service.store.get",
         op_in=lambda args, kwargs: args[1], after=count_get)
    wrap(ArtifactStore, "put", "service.store.put",
         op_in=lambda args, kwargs: args[1])


def coverage(spans: List[Span]) -> float:
    """Share of op wall time inside named layer spans directly under the
    ``op`` spans (ops recorded on their own thread)."""
    ops = {s.id: s for s in spans if s.name == "op"}
    total = sum(s.seconds for s in ops.values())
    covered = sum(s.seconds for s in spans if s.parent in ops)
    return covered / total if total else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, *, analysis_delta: Dict[str, int],
                  batch_size_mean: float, spilling_share: float,
                  coverage_share: float, overhead: float
                  ) -> Dict[str, float]:
    """The :data:`PER_LAYER` values from one traced window."""
    spans = tracer.spans
    c = tracer.counters
    selfs = self_times(spans)
    calls: Dict[str, int] = defaultdict(int)
    totals: Dict[str, float] = defaultdict(float)
    for s in spans:
        calls[s.name] += 1
        totals[s.name] += s.seconds

    # a miss is the one handle span of its key that encloses the execute
    # span; the gap between the two is time spent queued or batched
    handles: Dict[str, List[Span]] = defaultdict(list)
    for s in spans:
        if s.name == "service.server.handle":
            handles[s.op].append(s)
    queue_wait = 0.0
    for s in spans:
        if s.name != "service.server.execute":
            continue
        for h in handles.get(s.op, ()):
            if h.start <= s.start and s.end <= h.end:
                queue_wait += h.seconds - s.seconds
                break

    out: Dict[str, float] = {}
    for name, _unit, _better in PER_LAYER:
        base, _, leaf = name.rpartition(".")
        if leaf == "self_s":
            out[name] = selfs.get(base, 0.0)
        elif leaf == "calls":
            out[name] = float(calls.get(base, 0))
    for span_name in _LEAF_SECONDS:
        out[span_name + "_s"] = selfs.get(span_name, 0.0)
    out.update({
        "regalloc.remap.kept_ratio": _ratio(c["remap.kept"],
                                            c["differential_ops"]),
        "regalloc.remap.cost_saved": float(c["remap.cost_saved"]),
        "regalloc.spill_instrs": float(c["spill_instrs"]),
        "regalloc.moves.saved": float(c["moves.saved"]),
        "encoding.setlr": float(c["setlr"]),
        "encoding.setlr_elim.removed": float(c["setlr_elim.removed"]),
        "analysis.cache_hit_ratio": _ratio(
            analysis_delta["hits"],
            analysis_delta["hits"] + analysis_delta["misses"]),
        "swp.spilling_share": spilling_share,
        "service.server.handle_s": totals.get("service.server.handle", 0.0),
        "service.server.execute_s": totals.get("service.server.execute",
                                               0.0),
        "service.server.queue_wait_s": queue_wait,
        "service.store.get_s": totals.get("service.store.get", 0.0),
        "service.store.put_s": totals.get("service.store.put", 0.0),
        "service.store.hit_ratio": _ratio(
            c["store.hits"], c["store.hits"] + c["store.misses"]),
        "service.batch_size_mean": batch_size_mean,
        "trace.coverage": coverage_share,
        "trace.overhead": overhead,
    })
    expected = {name for name, _, _ in PER_LAYER}
    if set(out) != expected:
        raise RuntimeError(f"per-layer metrics out of step with PER_LAYER: "
                           f"{sorted(set(out) ^ expected)}")
    return out
