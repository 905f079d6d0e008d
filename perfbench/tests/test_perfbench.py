"""Tests for the benchmark's own code.

    python3 -m pytest perfbench/tests -q

They cover the tracing wrappers (installed at every layer entry point and
restored afterwards), the host-speed calibration, the determinism of each
workload's inputs in the seed, the output checks, and a tiny-size run of
each workload end to end.
"""

import json
import random
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

from perfbench import calibrate, layers
from perfbench.run import END_TO_END
from perfbench.tracing import Tracer, self_times
from perfbench.workloads import (SPILLING_LOOPS, LowEnd, OpRecord, Serve,
                                 Swp, count_out_of_range, parse_allocated)

ROOT = Path(__file__).resolve().parents[2]


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------


def test_install_wraps_every_entry_point_and_restore_puts_it_back():
    tracer = Tracer()
    layers.install(tracer)
    try:
        installed = tracer.installed()
        assert len(installed) >= 20
        for owner, attr, original in installed:
            assert getattr(owner, attr) is not original
    finally:
        tracer.restore()
    for owner, attr, original in installed:
        assert getattr(owner, attr) is original
    assert tracer.installed() == []


def test_restore_removes_a_wrapper_set_on_a_subclass():
    class Base:
        def f(self):
            return 1

    class Sub(Base):
        pass

    tracer = Tracer()
    tracer.wrap(Sub, "f", "f")
    assert Sub().f() == 1 and "f" in vars(Sub)
    tracer.restore()
    assert "f" not in vars(Sub) and Sub.f is Base.f
    assert [s.name for s in tracer.spans] == ["f"]


def test_spans_nest_under_their_caller_and_self_time_excludes_children():
    ns = types.SimpleNamespace()

    def inner():
        time.sleep(0.01)

    def outer():
        ns.inner()
        ns.inner()

    ns.inner, ns.outer = inner, outer
    tracer = Tracer()
    tracer.wrap(ns, "inner", "inner")
    tracer.wrap(ns, "outer", "outer")
    with tracer.span("op", 7):
        ns.outer()
    tracer.restore()
    assert ns.inner is inner and ns.outer is outer

    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (op,), (out,) = by_name["op"], by_name["outer"]
    assert [s.parent for s in by_name["inner"]] == [out.id, out.id]
    assert out.parent == op.id and op.parent == -1
    assert {s.op for s in tracer.spans} == {7}
    selfs = self_times(tracer.spans)
    children = sum(s.seconds for s in by_name["inner"])
    assert selfs["outer"] == pytest.approx(out.seconds - children)
    assert selfs["op"] == pytest.approx(op.seconds - out.seconds)
    assert layers.coverage(tracer.spans) == pytest.approx(
        out.seconds / op.seconds)


# ----------------------------------------------------------------------
# host-speed calibration
# ----------------------------------------------------------------------


def test_calibration_kernel_is_deterministic():
    assert calibrate.kernel() == calibrate.kernel()


def test_scale_uses_the_samples_nearest_in_time():
    cal = calibrate.Calibrator()
    ref = calibrate.REFERENCE_S
    # a fast spell (samples at t=0..9), then a spell twice as slow
    cal.times = [float(t) for t in range(20)]
    cal.seconds = [ref] * 10 + [2 * ref] * 10
    assert cal.scale(-5.0) == pytest.approx(1.0)
    assert cal.scale(3.0) == pytest.approx(1.0)
    assert cal.scale(17.0) == pytest.approx(0.5)
    assert cal.scale(99.0) == pytest.approx(0.5)


def test_span_seconds_drops_inner_samples_and_scales_each_part():
    cal = calibrate.Calibrator()
    ref = calibrate.REFERENCE_S
    # samples of 1 s at t=10, 20 and 30: host at full speed, then half
    cal.starts = [10.0, 20.0, 30.0]
    cal.times = [10.5, 20.5, 30.5]
    cal.seconds = [1.0, 1.0, 1.0]
    assert cal.span_seconds(5.0, 25.0, 20.0, scaled=False) == \
        pytest.approx(18.0)
    assert cal.span_seconds(0.0, 5.0, 5.0) == pytest.approx(5.0 * ref)
    cal.starts, cal.times = [10.0, 20.0], [10.5, 20.5]
    cal.seconds = [ref, 2 * ref]
    # busy throughout: the part before the sample at t=20 is
    # nearest-median scaled, the part after it too; the sample itself is
    # left out
    busy = cal.span_seconds(15.0, 25.0, 10.0)
    at_reference = ((20.0 - 15.0) * cal.scale(17.5)
                    + (25.0 - 20.0 - 2 * ref) * cal.scale(22.5 + ref))
    assert busy == pytest.approx(at_reference)
    # idle throughout (a sleep): the time stays as it is
    wall = 10.0 - 2 * ref
    assert cal.span_seconds(15.0, 25.0, 0.0) == pytest.approx(wall)
    # busy a quarter of the time, the sample's CPU time aside
    quarter = cal.span_seconds(15.0, 25.0, wall / 4 + 2 * ref)
    assert quarter == pytest.approx(at_reference / 4 + wall * 3 / 4)


def test_burst_samples_and_returns_a_positive_scale():
    cal = calibrate.Calibrator()
    assert cal.burst(3) > 0
    assert len(cal.times) == len(cal.seconds) == 3
    assert cal.times == sorted(cal.times)


# ----------------------------------------------------------------------
# inputs are deterministic in the seed
# ----------------------------------------------------------------------


def test_lowend_inputs_are_deterministic():
    from repro.analysis.cache import fingerprint_digest

    def inputs():
        w = LowEnd(3, n_kernels=2)
        w.setup()
        return ([key for key, _ in w.pass_ops()],
                [(fingerprint_digest(k.fn), k.args, k.freq)
                 for k in w.kernels])

    assert inputs() == inputs()


def test_swp_draw_is_deterministic_in_the_seed():
    def draw(seed):
        w = Swp(seed, n_plain=50)
        w.setup()
        assert sum(s.big for s in w.loops) == len(SPILLING_LOOPS)
        return [key for key, _ in w.pass_ops()]

    assert draw(3) == draw(3)
    assert draw(3) != draw(4)


def test_serve_requests_are_deterministic_in_the_seed(tmp_path):
    def requests(seed):
        w = Serve(seed, str(tmp_path), n_fixed=4)
        w.generate()
        return [f.requests for f in w.functions]

    assert requests(3) == requests(3)
    assert requests(3) != requests(4)


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------


def test_lowend_check_flags_code_that_computes_something_else():
    w = LowEnd(0, n_kernels=2)
    w.setup()
    k0, k1 = w.kernels
    good = OpRecord((k0.name, "baseline"), 0, 0.0, 0.0, True, output=k0.fn)
    bad = OpRecord((k0.name, "select"), 1, 0.0, 0.0, True, output=k1.fn)
    assert list(w.check([good, bad])) == [1]


def test_count_out_of_range_agrees_with_the_swp_encoder():
    from repro.swp.diffswp import _count_out_of_range

    rng = random.Random(0)
    for _ in range(200):
        reg_n = rng.choice((8, 12, 40))
        seq = [rng.randrange(reg_n) for _ in range(rng.randrange(30))]
        perm = list(range(reg_n))
        rng.shuffle(perm)
        diff_n = rng.randrange(1, reg_n + 1)
        assert count_out_of_range(seq, perm, reg_n, diff_n) == \
            _count_out_of_range(seq, perm, reg_n, diff_n)


def test_parse_allocated_renames_dotted_labels():
    fn = parse_allocated(
        "func f(v0):\n"
        "entry:\n"
        "    li v1, 3\n"
        "    blt v0, v1, a.b.crit\n"
        "mid:\n"
        "    br a.b.crit\n"
        "a.b.crit:\n"
        "    ret v0\n")
    assert [b.name for b in fn.blocks] == ["entry", "mid", "a_b_crit"]


# ----------------------------------------------------------------------
# tiny runs end to end
# ----------------------------------------------------------------------


@pytest.mark.parametrize("workload", ["lowend", "swp", "serve"])
def test_tiny_run_passes_its_output_check(workload):
    result = _result(_run("--workload", workload, "--seed", "5",
                          "--seconds", "0.1", "--size", "tiny"))
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] > 0
    assert set(result["metrics"]) == {name for name, _, _ in END_TO_END}


def test_tiny_traced_run_reports_every_layer_metric():
    result = _result(_run("--workload", "lowend", "--seed", "5",
                          "--seconds", "0.1", "--size", "tiny",
                          "--trace", "1"))
    assert result["correct"] is True and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {name for name, _, _ in layers.PER_LAYER}
    assert metrics["trace.coverage"] >= 0.9
    # two remap searches and three candidate encodings per differential op
    assert metrics["encoding.encoder.calls"] > 0
    assert metrics["encoding.encoder.calls"] * 2 == \
        metrics["regalloc.remap.calls"] * 3


def test_without_the_program_it_exits_nonzero_and_prints_no_result(
        tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_run", "__pycache__"))
    proc = _run("--workload", "lowend", "--seed", "1", "--seconds", "1",
                cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
