"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload lowend --seed 0 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``.
With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a traced window
(see ``perfbench/NOTES.md``).  The full result document — run metadata,
quartiles, fixed-block counts, failures — is written under
``perfbench/_run/``, next to the traced run's spans and layer report.

Exit codes: 0 after printing a result, 2 when the program is missing, 3
when an exact count differs between passes, windows or runs of the same
seed.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402 - the clock above must start first
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = ROOT / "perfbench" / "_run"
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

#: (name, unit, better) of every end-to-end metric, on every workload
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("throughput", "op/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("sim_cycles", "cycles", "lower"),
    ("code_size", "instrs", "lower"),
]

#: set-up repetitions per run; setup_s reports their median
SETUP_REPS = 3

#: what the workloads import from the program, numpy and scipy included
PROGRAM_MODULES = ("numpy", "scipy", "repro", "repro.experiments.swp",
                   "repro.machine", "repro.regalloc.pipeline",
                   "repro.service.client", "repro.service.server")

#: workload constructor arguments per size; "tiny" is the smoke size
SIZES = {
    "full": {"lowend": {}, "swp": {}, "serve": {}},
    "tiny": {"lowend": {"n_kernels": 2},
             "swp": {"n_plain": 20, "reg_ns": (32, 40)},
             "serve": {"n_fixed": 2, "n_local": 1}},
}


class ProgramMissing(RuntimeError):
    """``src/repro`` is not in the checkout."""


class InexactCounts(RuntimeError):
    """An exact count moved for a fixed seed."""


def load_program() -> dict:
    """Import the program from ``src/`` and everything the workloads
    call; returns the versions the result records."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program at {src / 'repro'}")
    sys.path.insert(0, str(src))
    import numpy
    import repro
    import scipy

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise ProgramMissing(f"repro imported from {repro.__file__}, "
                             f"not from {src}")
    for module in PROGRAM_MODULES:
        importlib.import_module(module)
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def import_seconds() -> tuple:
    """Time to import ``PROGRAM_MODULES`` in a fresh interpreter — what
    every invocation of the program pays first — unscaled and at the
    reference speed.  The benchmark process imports only once, so set-up
    repetitions time it in a child, which samples the host's speed
    itself: it may run on another core than the benchmark."""
    code = ("import importlib, sys, time\n"
            "sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
            "from perfbench.calibrate import Calibrator\n"
            "cal = Calibrator()\n"
            "before = cal.burst()\n"
            "t = time.perf_counter()\n"
            "for m in sys.argv[3:]:\n"
            "    importlib.import_module(m)\n"
            "t = time.perf_counter() - t\n"
            "print(t, t * (before + cal.burst()) / 2)\n")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src"), str(ROOT),
         *PROGRAM_MODULES],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    raw, scaled = proc.stdout.split()[-2:]
    return float(raw), float(scaled)


def source_digest() -> str:
    """Hash of the program and benchmark sources: exact counts recorded
    under one digest are comparable."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src" / "repro").rglob("*.py"))
    files += sorted((ROOT / "perfbench").glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


# ----------------------------------------------------------------------
# timed windows
# ----------------------------------------------------------------------


class Window:
    """The passes of one timed window, and the host-speed samples taken
    in it."""

    def __init__(self, passes: list, elapsed: float, cal) -> None:
        self.passes = passes
        self.elapsed = elapsed
        self.cal = cal

    @property
    def records(self) -> list:
        return [r for p in self.passes for r in p]

    @property
    def throughput(self) -> float:
        """Ops completed over the window's wall time, unscaled."""
        return sum(1 for r in self.records if r.ok) / self.elapsed

    def op_seconds(self, r, scaled: bool) -> float:
        """An op's time less the host-speed samples taken in it, at the
        reference speed if ``scaled``."""
        return self.cal.span_seconds(r.start, r.end, r.cpu_end - r.cpu_start,
                                     scaled)

    def pass_seconds(self, scaled: bool = True) -> list:
        """First op start to last op end, per pass."""
        return [self.cal.span_seconds(
                    min(r.start for r in p), max(r.end for r in p),
                    max(r.cpu_end for r in p) - min(r.cpu_start for r in p),
                    scaled)
                for p in self.passes]


def run_window(wl, seconds: float, cal, tracer=None, seq0: int = 0,
               pass0: int = 0) -> Window:
    """Repeat whole passes until ``seconds`` have elapsed (at least one).

    Host-speed samples are taken in a burst before the first pass and
    after the last, and every ``INTERVAL_S`` between ops — on ``serve``
    at the clients' steps, when no request is in flight — and inside
    long ops (``wl.sampling``)."""
    passes = []
    cal.burst()
    t0 = time.perf_counter()
    while True:
        with wl.sampling(cal.tick):
            records = wl.run_pass(pass0 + len(passes), seq0, tracer,
                                  between=cal.tick)
        passes.append(records)
        seq0 += len(records)
        if time.perf_counter() - t0 >= seconds:
            break
    elapsed = time.perf_counter() - t0
    cal.burst()
    return Window(passes, elapsed, cal)


# ----------------------------------------------------------------------
# exact counts
# ----------------------------------------------------------------------


def block_counts(window: Window) -> list:
    """Fixed-block totals, one dict per pass whose ops all succeeded."""
    from perfbench.workloads import COUNT_KEYS

    return [{k: sum(r.counts[k] for r in p if r.counts is not None)
             for k in COUNT_KEYS}
            for p in window.passes if all(r.ok for r in p)]


def guard_exact(counts: list, path: Path) -> dict:
    """Every block count equal, and equal to the earlier runs' record for
    this seed and source digest; returns the agreed counts."""
    if not counts:
        return {}
    for c in counts[1:]:
        if c != counts[0]:
            raise InexactCounts(f"fixed-block counts differ within the "
                                f"run: {counts}")
    if path.exists():
        recorded = json.loads(path.read_text())
        if recorded != counts[0]:
            raise InexactCounts(f"fixed-block counts {counts[0]} differ "
                                f"from an earlier run's {recorded} "
                                f"({path.name})")
    else:
        path.write_text(json.dumps(counts[0], sort_keys=True) + "\n")
    return counts[0]


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------


def latency_stats(lat_ms) -> dict:
    lat = sorted(lat_ms)
    p90 = statistics.quantiles(lat, n=10)[8]
    return {"p50": statistics.median(lat), "p90": p90,
            "quartiles": statistics.quantiles(lat, n=4),
            "samples": len(lat),
            "beyond_p90": sum(1 for x in lat if x > p90)}


def timing(wl, window: Window, scaled: bool = True) -> dict:
    """Throughput and latency percentiles of a window.

    With ``scaled``, the busy share of each time is taken at the
    reference speed of the host (``perfbench/calibrate.py``).  Every pass runs the same ops, so
    each op's time is taken as its median over the passes: a slow spell
    of the host that hits one pass moves no metric.  The percentiles are
    over every execution, each counted at its op's median.  Throughput is
    ops per pass over the summed per-op medians on serial workloads, and
    over the median pass time on ``serve``, whose two clients overlap
    their ops.
    """
    ok = [r for r in window.records if r.ok]
    per_op: dict = {}
    for r in ok:
        per_op.setdefault(r.key, []).append(window.op_seconds(r, scaled))
    op_time = {key: statistics.median(v) for key, v in per_op.items()}
    pass_time = (sum(op_time.values()) if wl.serial
                 else statistics.median(window.pass_seconds(scaled)))
    return {"throughput": len(op_time) / pass_time,
            "latency": latency_stats([op_time[r.key] * 1000.0 for r in ok])}


def apply_checks(wl, records) -> dict:
    """Run the workload's output checks; mark failing ops."""
    failures = wl.check([r for r in records if r.ok])
    for r in records:
        if r.seq in failures:
            r.ok = False
            r.error = failures[r.seq]
    return failures


def failure_summary(records) -> list:
    return sorted({r.error for r in records if not r.ok})[:20]


def run_untraced(make, args, meta) -> dict:
    """Time the imports in ``SETUP_REPS`` fresh interpreters and set up
    ``SETUP_REPS`` times, then time one window.  Each set-up is scaled by
    the mean of the host-speed bursts taken just before and just after
    it."""
    from perfbench.calibrate import REFERENCE_S, Calibrator
    from perfbench.workloads import clear_caches

    imports = [import_seconds() for _ in range(SETUP_REPS)]
    raw_reps = {"import": [raw for raw, _ in imports], "setup": []}
    reps = {"import": [scaled for _, scaled in imports], "setup": []}
    cal = Calibrator()
    scales = [cal.burst()]
    wl = None
    for _ in range(SETUP_REPS):
        if wl is not None:
            wl.close()
        clear_caches()
        wl = make()
        t = time.perf_counter()
        wl.setup()
        raw_reps["setup"].append(time.perf_counter() - t)
        scales.append(cal.burst())
        reps["setup"].append(
            raw_reps["setup"][-1] * (scales[-2] + scales[-1]) / 2)
    try:
        window = run_window(wl, args.seconds, cal)
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        exact = guard_exact(block_counts(window), meta["exact_path"])
        apply_checks(wl, window.records)
    finally:
        wl.close()
    t = timing(wl, window)
    raw = timing(wl, window, scaled=False)
    metrics = {
        "setup_s": (statistics.median(reps["import"])
                    + statistics.median(reps["setup"])),
        "throughput": t["throughput"],
        "latency_p50_ms": t["latency"]["p50"],
        "latency_p90_ms": t["latency"]["p90"],
        "peak_rss_mb": peak_rss_mb,
        "sim_cycles": exact.get("cycles", 0),
        "code_size": exact.get("instrs", 0),
    }
    pass_rates = [len(p) / sec
                  for p, sec in zip(window.passes, window.pass_seconds())]
    return {
        "metrics": metrics, "units": {n: u for n, u, _ in END_TO_END},
        "records": window.records,
        "detail": {
            "import_s": meta["import_s"], "setup_reps_s": reps,
            "setup_reps_raw_s": raw_reps,
            "latency_ms": t["latency"],
            "unscaled": {"throughput": raw["throughput"],
                         "latency_ms": raw["latency"]},
            "host_scale": {"samples": len(cal.seconds),
                           "quartiles": statistics.quantiles(
                               [REFERENCE_S / s for s in cal.seconds],
                               n=4)},
            "throughput_wall": window.throughput,
            "elapsed_s": window.elapsed,
            "passes": len(window.passes),
            "pass_throughput": pass_rates,
            "pass_throughput_quartiles":
                statistics.quantiles(pass_rates, n=4)
                if len(pass_rates) >= 2 else None,
            "fixed_block": exact,
        },
    }


def run_traced(make, args, meta) -> dict:
    """One untraced warm-up pass, then a traced and an untraced window of
    half the run each; per-layer metrics come from the traced window, the
    overhead from comparing it with the untraced one."""
    from perfbench import layers
    from perfbench.calibrate import Calibrator
    from perfbench.tracing import Tracer

    wl = make()
    wl.setup()
    windows, tracer, cal = [], Tracer(), Calibrator()
    try:
        for label, seconds in (("warmup", 0.0), ("traced", args.seconds / 2),
                               ("untraced", args.seconds / 2)):
            seq0 = sum(len(w.records) for w in windows)
            pass0 = sum(len(w.passes) for w in windows)
            if label != "traced":
                windows.append(run_window(wl, seconds, cal, None, seq0,
                                          pass0))
                continue
            a0 = wl.analysis_counts()
            b0 = wl.batch_stats() if not wl.serial else (0, 0)
            layers.install(tracer)
            try:
                windows.append(run_window(wl, seconds, cal, tracer, seq0,
                                          pass0))
            finally:
                tracer.restore()
            a1 = wl.analysis_counts()
            b1 = wl.batch_stats() if not wl.serial else (0, 0)
        exact = guard_exact([c for w in windows for c in block_counts(w)],
                            meta["exact_path"])
        apply_checks(wl, [r for w in windows for r in w.records])
    finally:
        wl.close()

    traced, untraced = windows[1], windows[2]
    spans = tracer.spans
    if wl.serial:
        coverage = layers.coverage(spans)
    else:
        ops = sum(r.seconds for r in traced.records)
        handled = sum(s.seconds for s in spans
                      if s.name == "service.server.handle")
        coverage = handled / ops if ops else 0.0
    spilling = [r.seconds for r in traced.records
                if r.ok and getattr(r.output, "optimized", False)]
    op_time = sum(r.seconds for r in traced.records)
    t_traced, t_untraced = timing(wl, traced), timing(wl, untraced)
    overhead = t_untraced["throughput"] / t_traced["throughput"] - 1.0
    batches, batched = b1[0] - b0[0], b1[1] - b0[1]
    metrics = layers.layer_metrics(
        tracer,
        analysis_delta={k: a1[k] - a0[k] for k in ("hits", "misses")},
        batch_size_mean=batched / batches if batches else 0.0,
        spilling_share=sum(spilling) / op_time if op_time else 0.0,
        coverage_share=coverage, overhead=overhead)

    stem = meta["stem"]
    spans_path = RUN_DIR / f"{stem}.spans.json"
    spans_path.write_text(json.dumps(
        {"columns": ["id", "name", "start", "end", "parent", "op"],
         "spans": tracer.rows()}, default=str) + "\n")
    report = layer_report(spans, metrics, traced, coverage, overhead,
                          t_traced["throughput"], t_untraced["throughput"])
    (RUN_DIR / f"{stem}.report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")
    return {
        "metrics": metrics,
        "units": {n: u for n, u, _ in layers.PER_LAYER},
        "records": [r for w in windows for r in w.records],
        "detail": {
            "throughput": {"traced": t_traced["throughput"],
                           "untraced": t_untraced["throughput"]},
            "latency_ms": t_traced["latency"],
            "fixed_block": exact,
            "spans_file": spans_path.name,
        },
    }


def layer_report(spans, metrics, traced, coverage, overhead,
                 throughput_traced, throughput_untraced) -> dict:
    """Per span name: self time, total time and calls; plus coverage and
    the tracing overhead."""
    from perfbench.tracing import self_times

    selfs = self_times(spans)
    layers_doc = {}
    for s in spans:
        entry = layers_doc.setdefault(
            s.name, {"calls": 0, "total_s": 0.0, "self_s": selfs[s.name]})
        entry["calls"] += 1
        entry["total_s"] += s.seconds
    return {
        "layers": layers_doc,
        "metrics": metrics,
        "op_wall_s": sum(r.seconds for r in traced.records),
        "coverage": coverage,
        "overhead": overhead,
        "throughput_traced": throughput_traced,
        "throughput_untraced": throughput_untraced,
    }


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def parse_args(argv):
    from perfbench.workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(SIZES), default="full",
                   help="workload size (tiny: smoke tests)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        versions = load_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _T0

    from perfbench.workloads import WORKLOADS

    RUN_DIR.mkdir(parents=True, exist_ok=True)
    cls = WORKLOADS[args.workload]
    kwargs = dict(SIZES[args.size][args.workload])
    if args.workload == "serve":
        kwargs["store_dir"] = str(RUN_DIR)

    def make():
        return cls(args.seed, **kwargs)

    stem = f"{args.workload}-seed{args.seed}-{args.size}-trace{args.trace}"
    meta = {
        "import_s": import_s, "stem": stem,
        "exact_path": RUN_DIR / (f"exact-{args.workload}-seed{args.seed}-"
                                 f"{args.size}-{source_digest()}.json"),
    }
    try:
        result = (run_traced if args.trace else run_untraced)(
            make, args, meta)
    except InexactCounts as exc:
        print(f"perfbench: exactness guard: {exc}", file=sys.stderr)
        return 3

    records = result["records"]
    failed = sum(1 for r in records if not r.ok)
    doc = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "size": args.size,
        "nproc": os.cpu_count(), **versions,
        "attempted": len(records), "failed": failed,
        "correct": failed == 0,
        "failures": failure_summary(records),
        "metrics": result["metrics"], "units": result["units"],
        **result["detail"],
    }
    (RUN_DIR / f"{stem}.result.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True, default=str) + "\n")
    for message in doc["failures"]:
        print(f"perfbench: failed op: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": result["units"][name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
