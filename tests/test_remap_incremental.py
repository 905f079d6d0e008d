"""Remap descent equivalence tests.

The greedy descent runs as one lockstep numpy search over every restart
(:func:`_lockstep_descent`), on int64 tables or, for weights at or above
:data:`_NUMPY_WEIGHT_LIMIT`, on Python-int tables.  Both are pinned here
against :func:`_greedy_descent_reference`, the original
O(E)-per-candidate descent.  On exact (integer) edge weights every
start's (cost, permutation) must match bit for bit, on random graphs and
on bundled workloads alike.
"""

from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import estimate_block_frequencies
from repro.ir import parse_function
from repro.regalloc import iterated_allocate
from repro.regalloc import remap
from repro.regalloc.pipeline import run_setup
from repro.regalloc.remap import (
    _NUMPY_WEIGHT_LIMIT,
    _WEIGHT_SCALE,
    _edge_list,
    _lockstep_descent,
    _perm_cost,
    _start_perms,
    differential_remap,
)
from repro.workloads import get_workload

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])

REG_N, DIFF_N = 8, 4


def _greedy_descent_reference(perm, edges, reg_n, diff_n, free):
    """The original O(E)-per-candidate steepest descent (the paper's
    Figure 7 loop): try every swap of two free registers by full-cost
    evaluation, apply the first best, until no swap improves.  Descends
    ``perm`` in place and returns its cost."""
    cost = _perm_cost(perm, edges, reg_n, diff_n)
    while True:
        best_delta = 0
        best_swap = None
        for ai in range(len(free)):
            for bi in range(ai + 1, len(free)):
                a, b = free[ai], free[bi]
                perm[a], perm[b] = perm[b], perm[a]
                new_cost = _perm_cost(perm, edges, reg_n, diff_n)
                perm[a], perm[b] = perm[b], perm[a]
                delta = cost - new_cost
                if delta > best_delta:
                    best_delta, best_swap = delta, (a, b)
        if best_swap is None:
            return cost
        a, b = best_swap
        perm[a], perm[b] = perm[b], perm[a]
        cost -= best_delta


def _reference(edges, reg_n, diff_n, free, starts):
    """The reference descent from each start in order, up to and
    including the first zero-cost one (the prefix the restart fold
    reads)."""
    results = []
    for start in starts:
        perm = list(start)
        results.append((_greedy_descent_reference(perm, edges, reg_n, diff_n,
                                                  free), perm))
        if results[-1][0] == 0:
            break
    return results


@st.composite
def random_graph(draw):
    """A random integer-weighted edge list over REG_N registers."""
    n_edges = draw(st.integers(0, 24))
    edges = []
    seen = set()
    for _ in range(n_edges):
        u = draw(st.integers(0, REG_N - 1))
        v = draw(st.integers(0, REG_N - 1))
        if u == v or (u, v) in seen:
            continue
        seen.add((u, v))
        edges.append((u, v, draw(st.integers(1, 1000))))
    return edges


@st.composite
def graph_and_perm(draw):
    edges = draw(random_graph())
    perm = draw(st.permutations(list(range(REG_N))))
    return edges, list(perm)


@st.composite
def search_problem(draw):
    """A whole restart schedule: any register count and ``DiffN``,
    self-edges, parallel (repeated) edges and pinned registers allowed."""
    reg_n = draw(st.integers(1, 9))
    diff_n = draw(st.integers(0, reg_n + 1))
    edges = draw(st.lists(
        st.tuples(st.integers(0, reg_n - 1), st.integers(0, reg_n - 1),
                  st.integers(1, 1000)), max_size=30))
    pinned = draw(st.sets(st.integers(0, reg_n - 1)))
    free = [r for r in range(reg_n) if r not in pinned]
    starts = _start_perms(list(range(reg_n)), free,
                          draw(st.integers(0, 8)), draw(st.integers(0, 99)))
    return edges, reg_n, diff_n, free, starts


class TestDescentEquivalence:
    @given(search_problem())
    @settings(max_examples=150, **COMMON)
    def test_lockstep_matches_engine_and_reference(self, problem):
        """Every start of a lockstep search returns the reference's cost
        and permutation."""
        edges, reg_n, diff_n, free, starts = problem
        assert (_lockstep_descent(edges, reg_n, diff_n, free, starts)
                == _reference(edges, reg_n, diff_n, free, starts))

    @given(search_problem())
    @settings(max_examples=60, **COMMON)
    def test_descend_starts_matches_reference(self, problem):
        """The same searches with every weight raised past
        :data:`_NUMPY_WEIGHT_LIMIT`, on the Python-int tables."""
        edges, reg_n, diff_n, free, starts = problem
        big = [(u, v, _NUMPY_WEIGHT_LIMIT + w) for u, v, w in edges]
        assert (_lockstep_descent(big, reg_n, diff_n, free, starts)
                == _reference(big, reg_n, diff_n, free, starts))

    @given(search_problem())
    @settings(max_examples=60, **COMMON)
    def test_lockstep_blocks_match_one_block(self, problem):
        """Starts split over many lockstep blocks (one row each here)
        descend exactly as in one block."""
        edges, reg_n, diff_n, free, starts = problem
        whole = _lockstep_descent(edges, reg_n, diff_n, free, starts)
        saved = remap._LOCKSTEP_CELLS
        remap._LOCKSTEP_CELLS = 1
        try:
            blocked = _lockstep_descent(edges, reg_n, diff_n, free, starts)
        finally:
            remap._LOCKSTEP_CELLS = saved
        assert blocked == whole

    @given(graph_and_perm())
    @settings(**COMMON)
    def test_descent_cost_equals_perm_cost_of_result(self, gp):
        """The incrementally maintained cost is exactly the full cost of
        the final permutation — no drift accumulates."""
        edges, perm = gp
        free = list(range(REG_N))
        [(cost, final)] = _lockstep_descent(edges, REG_N, DIFF_N, free,
                                            [perm])
        assert cost == _perm_cost(final, edges, REG_N, DIFF_N)

    def test_pinned_free_subset_matches_reference(self):
        edges = [(0, 1, 5), (1, 2, 3), (2, 3, 7), (3, 0, 2), (1, 3, 4)]
        free = [0, 2, 3]  # register 1 pinned
        starts = [[0, 1, 2, 3], [3, 1, 0, 2], [2, 1, 3, 0]]
        assert (_lockstep_descent(edges, 4, 2, free, starts)
                == _reference(edges, 4, 2, free, starts))

    @pytest.mark.parametrize("diff_n", [0, 3, 8, 9])
    def test_empty_edge_list(self, diff_n):
        """No edges: every start is already a zero-cost local minimum,
        so only the first is descended."""
        starts = _start_perms(list(range(8)), list(range(8)), 5, 1)
        assert _lockstep_descent([], 8, diff_n, list(range(8)),
                                 starts) == [(0, starts[0])]

    @pytest.mark.parametrize("edges, used", [
        # no start reaches cost 0: every start descends
        ([(0, 5, 3), (5, 2, 4), (2, 4, 9), (4, 1, 1), (1, 3, 8), (3, 0, 6),
          (0, 2, 5), (5, 3, 2), (4, 0, 7), (1, 5, 3)], 8),
        # a chain every start can satisfy: only the first descends
        ([(0, 1, 3), (1, 2, 4)], 1),
    ])
    def test_weights_past_int64_limit_match_reference(self, edges, used):
        """Weights at the limit, and weights past int64 itself,
        descend on the Python-int tables to the reference's results and
        stop after the first zero-cost start."""
        starts = _start_perms(list(range(6)), list(range(6)), 8, 3)
        for base in (_NUMPY_WEIGHT_LIMIT, 1 << 63):
            big = [(u, v, base + w) for u, v, w in edges]
            got = _lockstep_descent(big, 6, 3, list(range(6)), starts)
            assert got == _reference(big, 6, 3, list(range(6)), starts)
            assert len(got) == used
            assert (got[-1][0] == 0) == (used < len(starts))

    def test_diff_n_equal_to_reg_n(self):
        """DiffN == RegN satisfies every edge: cost 0 from the start."""
        edges = [(0, 5, 3), (5, 2, 4), (2, 2, 9), (2, 5, 1)]
        starts = _start_perms(list(range(6)), list(range(6)), 4, 2)
        assert _lockstep_descent(edges, 6, 6, list(range(6)),
                                 starts) == [(0, starts[0])]


@pytest.mark.parametrize("name", ["sha", "crc32", "stringsearch"])
def test_workload_descents_match_reference(name):
    """Whole restart schedules on bundled kernels: the descent the search
    actually uses returns the reference's (cost, permutation) for every
    start — including stringsearch, whose fractional frequency shares
    made float arithmetic noisy before weights were scaled to integers."""
    fn = iterated_allocate(get_workload(name).function(), 12).fn
    freq = estimate_block_frequencies(fn)
    edges = _edge_list(fn, 12, "src_first", freq)
    free = list(range(12))
    starts = _start_perms(list(range(12)), free, 10, seed=5)
    assert (_lockstep_descent(edges, 12, 8, free, starts)
            == _reference(edges, 12, 8, free, starts))


ZERO_AT_START = """
func f(r0):
entry:
    mov r1, r0
    addi r2, r1, 1
    ret r2
"""


class TestRemapResult:
    """Whole :func:`differential_remap` results across descents."""

    @staticmethod
    def _key(result):
        return (result.permutation, result.cost_before, result.cost_after,
                result.restarts)

    @pytest.mark.parametrize("restarts", [0, 1, 7])
    def test_pure_engine_matches_lockstep(self, monkeypatch, restarts):
        fn = iterated_allocate(get_workload("sha").function(), 12).fn
        fast = differential_remap(fn, 12, 8, restarts=restarts, seed=3)
        monkeypatch.setattr(remap, "_lockstep_descent", _reference)
        pure = differential_remap(fn, 12, 8, restarts=restarts, seed=3)
        assert self._key(fast) == self._key(pure)
        assert fast.restarts == max(1, restarts)

    def test_zero_cost_hit_at_start_zero(self, monkeypatch):
        """Identity already costs 0: the fold stops after one start on
        either descent."""
        fn = parse_function(ZERO_AT_START)
        fast = differential_remap(fn, 8, 4, restarts=20)
        monkeypatch.setattr(remap, "_lockstep_descent", _reference)
        pure = differential_remap(fn, 8, 4, restarts=20)
        assert fast.cost_before == fast.cost_after == 0
        assert fast.restarts == pure.restarts == 1
        assert self._key(fast) == self._key(pure)

    @pytest.mark.parametrize("name, diff_n, restarts, used", [
        ("sha", 8, 12, 12),      # no zero-cost hit
        ("bitcount", 8, 12, 3),  # hit at the third start
        ("dct", 11, 4, 4),       # hit at the last start
    ])
    def test_restarts_stop_at_first_zero_cost(self, monkeypatch, name,
                                              diff_n, restarts, used):
        fn = iterated_allocate(get_workload(name).function(), 12).fn
        fast = differential_remap(fn, 12, diff_n, restarts=restarts, seed=4)
        monkeypatch.setattr(remap, "_lockstep_descent", _reference)
        pure = differential_remap(fn, 12, diff_n, restarts=restarts, seed=4)
        assert self._key(fast) == self._key(pure)
        assert fast.restarts == used


DATA = Path(__file__).resolve().parent / "data"


def test_seven_deep_nest_descends_past_int64_limit():
    """A 7-deep loop nest at static frequencies scales its innermost
    edges past :data:`_NUMPY_WEIGHT_LIMIT`, so ``run_setup``'s remapping
    descends on the Python-int tables; its results are pinned."""
    fn = parse_function((DATA / "nest7.s").read_text())
    prog = run_setup(fn, "remapping")
    allocated = prog.allocation.fn
    freq = estimate_block_frequencies(allocated)
    assert max(w for _, _, w in _edge_list(allocated, 12, "src_first", freq)
               ) >= _NUMPY_WEIGHT_LIMIT
    result = differential_remap(allocated, 12, 8)
    assert result.permutation == (10, 3, 2, 1, 4, 0, 11, 5, 8, 9, 6, 7)
    assert result.cost_before == 55567830.0
    assert result.cost_after == 40117220.0
    assert result.restarts == 100
    assert str(prog.final_fn) == (DATA / "nest7.remapping.s").read_text()


class TestEdgeList:
    def test_parallel_edges_collapsed(self):
        """(u, v) appears at most once; weights are summed, not repeated."""
        fn = iterated_allocate(get_workload("sha").function(), 12).fn
        freq = estimate_block_frequencies(fn)
        edges = _edge_list(fn, 12, "src_first", freq)
        keys = [(u, v) for u, v, _ in edges]
        assert len(keys) == len(set(keys))

    def test_weights_are_scaled_integers(self):
        fn = iterated_allocate(get_workload("crc32").function(), 12).fn
        freq = estimate_block_frequencies(fn)
        for _, _, w in _edge_list(fn, 12, "src_first", freq):
            assert isinstance(w, int)
            assert w > 0

    def test_scaled_cost_matches_adjacency_cost(self):
        """Descaled _edge_list costs agree with the float adjacency-graph
        cost model to rounding."""
        from repro.analysis import build_adjacency
        from repro.ir.instr import Reg

        fn = iterated_allocate(get_workload("sha").function(), 12).fn
        freq = estimate_block_frequencies(fn)
        graph = build_adjacency(fn, freq=freq)
        edges = _edge_list(fn, 12, "src_first", freq)
        identity = list(range(12))
        assignment = {
            r: r.id for r in graph.nodes()
            if not r.virtual and r.cls == "int" and r.id < 12
        }
        scaled = _perm_cost(identity, edges, 12, 8) / _WEIGHT_SCALE
        assert scaled == pytest.approx(graph.cost(assignment, 12, 8))
