"""Equivalence tests for the columnar/batched analysis core.

ISSUE: the vectorized engines in :mod:`repro.analysis.batched` are an
*implementation detail* behind ``compute_liveness`` /
``build_interference`` / ``build_adjacency`` — they must reproduce the
reference engines **exactly**: the same values, the same dict insertion
orders (the allocators' tie-breaks walk them), and bit-identical floats
(weights accumulate in the same left-to-right order).  Checked here on
the full mibench suite, a 200-function seeded fuzz corpus, and
hypothesis-generated programs over the whole fuzz knob set; plus the
``prewarm_corpus`` / pipeline wiring.
"""

import os
import struct

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tests.conftest import fuzz_programs
from repro.analysis import batched
from repro.analysis.adjacency import _build_adjacency_ref
from repro.analysis.cache import (
    clear_analysis_cache,
    fingerprint_function,
    peek_analysis,
)
from repro.analysis.frequency import estimate_block_frequencies
from repro.analysis.interference import (
    _build_interference_ref,
    build_interference,
)
from repro.analysis.liveness import _compute_liveness, compute_liveness
from repro.fuzz.gen import generate_fuzz_function
from repro.ir.columnar import columnar_view
from repro.workloads import MIBENCH

ORDERS = ("src_first", "dst_first", "two_address")


def _bits(x):
    """IEEE-754 image — floats must match down to the last bit."""
    return struct.pack("<d", x)


def assert_same_liveness(ref, vec):
    for attr in ("live_in", "live_out", "use", "defs",
                 "instr_live_out", "instr_live_in"):
        da, db = getattr(ref, attr), getattr(vec, attr)
        assert list(da.keys()) == list(db.keys()), f"{attr}: key order"
        assert da == db, attr


def assert_same_interference(ref, vec):
    assert list(ref._adj.keys()) == list(vec._adj.keys()), "node order"
    assert ref._adj == vec._adj
    assert list(ref.moves.keys()) == list(vec.moves.keys()), "move order"
    for k in ref.moves:
        assert _bits(ref.moves[k]) == _bits(vec.moves[k]), ("weight", k)


def assert_same_adjacency(ref, vec):
    for side in ("_out", "_in"):
        da, db = getattr(ref, side), getattr(vec, side)
        assert list(da.keys()) == list(db.keys()), f"{side}: key order"
        for u in da:
            assert list(da[u].keys()) == list(db[u].keys()), (side, u)
            for v in da[u]:
                assert _bits(da[u][v]) == _bits(db[u][v]), (side, u, v)


def assert_fn_equivalent(fn, orders=ORDERS):
    """Per-function vectorized == reference, across every analysis."""
    clear_analysis_cache()
    assert_same_liveness(_compute_liveness(fn), batched.liveness_one(fn))
    for freq in (None, estimate_block_frequencies(fn)):
        assert_same_interference(
            _build_interference_ref(fn, None, freq, "int"),
            batched.interference_one(fn, freq, "int"))
        for order in orders:
            assert_same_adjacency(
                _build_adjacency_ref(fn, order, "int", freq),
                batched.adjacency_one(fn, order, "int", freq))


@pytest.fixture(scope="module")
def mibench_fns():
    return [w.build() for w in MIBENCH]


class TestMibenchPerFunction:
    @pytest.mark.parametrize("workload", MIBENCH, ids=lambda w: w.name)
    def test_every_kernel(self, workload):
        assert_fn_equivalent(workload.build())


class TestMibenchCorpus:
    """One vectorized pass over the whole suite == per-function refs."""

    @pytest.fixture()
    def views(self, mibench_fns):
        clear_analysis_cache()
        return [columnar_view(fn, fingerprint_function(fn))
                for fn in mibench_fns]

    def test_batched_liveness(self, mibench_fns):
        clear_analysis_cache()
        infos = batched.batched_liveness(mibench_fns)
        for fn, info in zip(mibench_fns, infos):
            assert_same_liveness(_compute_liveness(fn), info)

    def test_interference_kernel(self, mibench_fns, views):
        _, bits = batched._liveness_kernel(views)
        nones = [None] * len(views)
        graphs = batched._interference_kernel(views, bits, nones, "int")
        for fn, g in zip(mibench_fns, graphs):
            assert_same_interference(
                _build_interference_ref(fn, None, None, "int"), g)

    @pytest.mark.parametrize("order", ORDERS)
    def test_adjacency_kernel(self, mibench_fns, views, order):
        for freqs in ([None] * len(views),
                      [estimate_block_frequencies(fn)
                       for fn in mibench_fns]):
            adjs = batched._adjacency_kernel(views, order, "int", freqs)
            for fn, fq, g in zip(mibench_fns, freqs, adjs):
                assert_same_adjacency(
                    _build_adjacency_ref(fn, order, "int", fq), g)


class TestFuzzCorpus:
    """ISSUE acceptance: 200 seeded fuzz functions, corpus-batched
    results identical to the per-function reference engines."""

    N = 200

    @pytest.fixture(scope="class")
    def corpus(self):
        return [generate_fuzz_function(seed) for seed in range(self.N)]

    def test_corpus_equivalence(self, corpus):
        clear_analysis_cache()
        views = [columnar_view(fn, fingerprint_function(fn))
                 for fn in corpus]
        infos, bits = batched._liveness_kernel(views)
        for fn, info in zip(corpus, infos):
            assert_same_liveness(_compute_liveness(fn), info)
        nones = [None] * len(views)
        graphs = batched._interference_kernel(views, bits, nones, "int")
        for fn, g in zip(corpus, graphs):
            assert_same_interference(
                _build_interference_ref(fn, None, None, "int"), g)
        for order in ORDERS:
            adjs = batched._adjacency_kernel(views, order, "int", nones)
            for fn, g in zip(corpus, adjs):
                assert_same_adjacency(
                    _build_adjacency_ref(fn, order, "int", None), g)

    def test_prewarm_matches_public_api(self, corpus):
        """After a corpus prewarm the public entry points serve the
        memoized vectorized results — still identical to reference."""
        sample = corpus[:25]
        clear_analysis_cache()
        batched.prewarm_corpus(sample)
        for fn in sample:
            fp = fingerprint_function(fn)
            assert peek_analysis(("liveness", fp)) is not None
            assert_same_liveness(_compute_liveness(fn),
                                 compute_liveness(fn))
            assert_same_interference(
                _build_interference_ref(fn, None, None, "int"),
                build_interference(fn))
        clear_analysis_cache()


class TestHypothesisEquivalence:
    """Property: on *any* generated program — every knob swept — the
    vectorized engines agree with the references exactly."""

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(fn=fuzz_programs(calls=True),
           order=st.sampled_from(ORDERS))
    def test_equivalent_on_any_program(self, fn, order):
        assert_fn_equivalent(fn, orders=(order,))


class TestPipelineParity:
    # ospill and coalesce are the regression setups: their solvers used
    # to iterate raw liveness/neighbor sets, so any difference in set
    # *iteration order* (not content) between the reference and
    # vectorized engines changed their tie-breaks
    @pytest.mark.parametrize("setup", ["select", "ospill", "coalesce"])
    def test_run_setup_identical_with_and_without_vectors(
            self, monkeypatch, setup):
        """The vector path (and its corpus-of-one prewarm) must not
        change any allocation decision: same final program either way."""
        from repro.ir.printer import format_function
        from repro.regalloc import run_setup
        from repro.workloads import get_workload

        fn = get_workload("crc32").build()

        def outcome():
            clear_analysis_cache()
            prog = run_setup(fn, setup)
            return (format_function(prog.final_fn),
                    sorted((r.id, r.cls, c)
                           for r, c in prog.allocation.coloring.items()),
                    prog.n_spills)

        vec = outcome()
        # the reference engines behind the same public entry points; the
        # reference fills the analysis cache lazily, so prewarm is a no-op
        monkeypatch.setattr(
            batched, "liveness_one",
            lambda fn, fp=None: _compute_liveness(fn))
        monkeypatch.setattr(
            batched, "interference_one",
            lambda fn, freq, cls, fp=None:
            _build_interference_ref(fn, None, freq, cls))
        monkeypatch.setattr(
            batched, "adjacency_one",
            lambda fn, order, cls, freq, fp=None:
            _build_adjacency_ref(fn, order, cls, freq))
        monkeypatch.setattr(batched, "prewarm_corpus",
                            lambda fns, cls="int", interference=True: 0)
        ref = outcome()
        clear_analysis_cache()
        assert ref == vec

    def test_hash_seed_determinism(self):
        """The same divergence seen across engines also appears across
        *processes* when allocators iterate sets whose layout depends on
        the randomized string hash: pin that the whole figure grid —
        mibench x the paper setups — allocates, encodes and simulates
        identically under different PYTHONHASHSEED values."""
        import subprocess
        import sys

        prog = (
            "import hashlib\n"
            "from repro.analysis.profile import "
            "block_frequencies_from_counts\n"
            "from repro.ir.printer import format_function\n"
            "from repro.machine import interpret_or_derive, "
            "record_reference_run\n"
            "from repro.machine.lowend import LowEndTimingModel\n"
            "from repro.machine.spec import LOWEND\n"
            "from repro.regalloc import PAPER_SETUPS, run_setup\n"
            "from repro.workloads.mibench import MIBENCH\n"
            "h = hashlib.sha256()\n"
            "timing = LowEndTimingModel(LOWEND)\n"
            "for w in MIBENCH:\n"
            "    fn = w.function()\n"
            "    rec = record_reference_run(fn, w.default_args)\n"
            "    freq = block_frequencies_from_counts(\n"
            "        fn, rec.block_instr_counts)\n"
            "    for setup in PAPER_SETUPS:\n"
            "        p = run_setup(fn, setup, freq=freq, remap_restarts=50)\n"
            "        res = interpret_or_derive(p.final_fn, w.default_args,\n"
            "                                  rec)\n"
            "        cycles = timing.time(res.columnar if res.columnar\n"
            "                             is not None else res.trace).cycles\n"
            "        h.update(format_function(p.final_fn).encode())\n"
            "        h.update(repr((w.name, setup, p.n_spills, p.n_setlr,\n"
            "                       cycles)).encode())\n"
            "        h.update(repr(sorted((r.id, r.cls, c) for r, c in\n"
            "                 p.allocation.coloring.items())).encode())\n"
            "print(h.hexdigest())\n"
        )
        # both seeds run at once: each process is one grid pass
        procs = [subprocess.Popen(
            [sys.executable, "-c", prog],
            env=dict(os.environ, PYTHONHASHSEED=seed),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            for seed in ("1", "2")]
        digests = set()
        for proc in procs:
            out, err = proc.communicate()
            assert proc.returncode == 0, err
            digests.add(out.strip())
        assert len(digests) == 1, digests
