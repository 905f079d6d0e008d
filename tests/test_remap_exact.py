"""Exact remapping engine and the greedy optimality-gap calibration.

The branch-and-bound engine must agree with brute-force permutation
enumeration wherever both run, its memo table is the DP the pruning
bound leans on (so it is unit-tested directly), and the greedy descent's
measured gap against the exact optimum is ratcheted: it may close but
never widen without someone noticing here.
"""

import itertools

import pytest

from repro.regalloc.iterated import iterated_allocate
from repro.regalloc.remap import (_WEIGHT_SCALE, RemapResult, _edge_list,
                                  _ExactEngine, _perm_cost,
                                  apply_permutation, exact_remap,
                                  remap_optimality_gap)
from repro.analysis.frequency import estimate_block_frequencies
from repro.ir import Interpreter

from tests.conftest import make_pressure_fn

REG_N, DIFF_N = 6, 4


def exhaustive_remap(fn, reg_n, diff_n, order="src_first", freq=None,
                     pinned=()):
    """Try every permutation: the brute-force oracle for the exact engine.
    Only sensible for small ``reg_n`` (<= 8)."""
    if freq is None:
        freq = estimate_block_frequencies(fn)
    edges = _edge_list(fn, reg_n, order, freq)
    identity = tuple(range(reg_n))
    base_cost = _perm_cost(identity, edges, reg_n, diff_n)
    free = [i for i in range(reg_n) if i not in set(pinned)]
    best_perm, best_cost = identity, base_cost
    for images in itertools.permutations(free):
        perm = list(identity)
        for slot, image in zip(free, images):
            perm[slot] = image
        cost = _perm_cost(perm, edges, reg_n, diff_n)
        if cost < best_cost:
            best_perm, best_cost = tuple(perm), cost
            if cost == 0:
                break
    return RemapResult(
        fn=apply_permutation(fn, best_perm, reg_n),
        permutation=best_perm,
        cost_before=base_cost / _WEIGHT_SCALE,
        cost_after=best_cost / _WEIGHT_SCALE,
    )


def allocated_kernel(seed):
    fn = make_pressure_fn(seed=seed)
    return fn, iterated_allocate(fn, REG_N).fn


class TestExactRemap:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_exhaustive_enumeration(self, seed):
        _, alloc = allocated_kernel(seed)
        exact = exact_remap(alloc, REG_N, DIFF_N)
        brute = exhaustive_remap(alloc, REG_N, DIFF_N)
        assert exact.cost_after == brute.cost_after

    def test_prunes_against_brute_force(self):
        # rotation pinning alone divides RegN! by RegN; the bound and the
        # memo must cut further
        _, alloc = allocated_kernel(1)
        exact = exact_remap(alloc, REG_N, DIFF_N)
        assert 0 < exact.nodes < 720  # 6! brute-force leaves
        assert exact.memo_size > 0

    def test_semantics_preserved(self):
        fn, alloc = allocated_kernel(2)
        ref = Interpreter().run(fn, (4,)).return_value
        exact = exact_remap(alloc, REG_N, DIFF_N)
        assert Interpreter().run(exact.fn, (4,)).return_value == ref
        assert sorted(exact.permutation) == list(range(REG_N))

    def test_pinned_registers_stay_fixed(self):
        _, alloc = allocated_kernel(3)
        exact = exact_remap(alloc, REG_N, DIFF_N, pinned=(0, 1))
        assert exact.permutation[0] == 0 and exact.permutation[1] == 1
        brute = exhaustive_remap(alloc, REG_N, DIFF_N, pinned=(0, 1))
        assert exact.cost_after == brute.cost_after

    def test_large_reg_n_rejected(self):
        _, alloc = allocated_kernel(1)
        with pytest.raises(ValueError):
            exact_remap(alloc, 9, 4)


class TestMemoTable:
    def _engine(self, seed=1):
        _, alloc = allocated_kernel(seed)
        freq = estimate_block_frequencies(alloc)
        edges = _edge_list(alloc, REG_N, "src_first", freq)
        return _ExactEngine(edges, REG_N, DIFF_N), edges

    def test_full_mask_is_the_unpinned_optimum(self):
        # h over all registers brute-forces the entire problem: it must
        # equal the engine's own solved optimum
        engine, _ = self._engine()
        full = (1 << REG_N) - 1
        best_cost, _ = engine.solve()
        assert engine.h(full) == best_cost

    def test_empty_and_singleton_masks_are_free(self):
        engine, _ = self._engine()
        assert engine.h(0) == 0
        for r in range(REG_N):
            assert engine.h(1 << r) == 0

    def test_memo_caches_and_reuses(self):
        engine, _ = self._engine()
        mask = 0b10110
        first = engine.h(mask)
        assert mask in engine.memo
        size = len(engine.memo)
        assert engine.h(mask) == first  # cached: no new entries
        assert len(engine.memo) == size

    def test_h_lower_bounds_contiguous_placements(self):
        # h is the *minimum* over contiguous-block placements of the
        # mask's registers, so any concrete such placement pays at least h
        engine, edges = self._engine()
        for mask in (0b000111, 0b111000, 0b101010, 0b011110):
            regs = [r for r in range(REG_N) if mask >> r & 1]
            num = {r: i for i, r in enumerate(regs)}  # sorted-order block
            internal = [(u, v, w) for u, v, w in edges
                        if u != v and (mask >> u & 1) and (mask >> v & 1)]
            paid = sum(w for u, v, w in internal
                       if (num[v] - num[u]) % REG_N >= DIFF_N)
            assert engine.h(mask) <= paid

    def test_counters_track_search_effort(self):
        engine, _ = self._engine()
        engine.solve()
        assert engine.nodes > 0
        assert engine.pruned >= 0


# measured 2026-08: the greedy descent finds the true optimum on every
# corpus kernel at this size.  The ratchet may tighten (lower a bound)
# but must never loosen — a widening gap is a search regression.
GAP_CEILING = {1: 0.0, 2: 0.0, 3: 0.0}


class TestOptimalityGap:
    @pytest.mark.parametrize("seed", sorted(GAP_CEILING))
    def test_gap_is_ratcheted_non_increasing(self, seed):
        _, alloc = allocated_kernel(seed)
        gap = remap_optimality_gap(alloc, REG_N, DIFF_N, restarts=20)
        assert gap["gap"] >= 0.0
        assert gap["gap"] <= GAP_CEILING[seed]

    def test_report_shape(self):
        _, alloc = allocated_kernel(1)
        gap = remap_optimality_gap(alloc, REG_N, DIFF_N, restarts=5)
        assert set(gap) == {"greedy_cost", "exact_cost", "gap",
                            "nodes", "pruned", "memo_size"}
        assert gap["exact_cost"] <= gap["greedy_cost"]
