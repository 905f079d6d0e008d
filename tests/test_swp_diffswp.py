"""Differential encoding of SWP kernels (paper Section 8.1)."""

import pytest

from repro.swp import allocate_kernel, encode_kernel
from repro.swp.diffswp import kernel_access_sequence, _count_out_of_range
from repro.workloads.spec_loops import generate_loop


@pytest.fixture(scope="module")
def big_alloc():
    spec = generate_loop(205, big=True)
    return allocate_kernel(spec.ddg, 48)


class TestAccessSequence:
    def test_sequence_in_schedule_order(self, big_alloc):
        seq = kernel_access_sequence(big_alloc)
        assert seq
        assert all(0 <= r < 48 for r in seq)

    def test_cyclic_cost_counts_wraparound(self):
        # ascending sequence 0..3 with RegN=8, DiffN=4: in-range forward
        # steps, but the wrap 3 -> 0 costs (0-3)%8 = 5 >= 4
        assert _count_out_of_range([0, 1, 2, 3], list(range(8)), 8, 4) == 1

    def test_empty_sequence(self):
        assert _count_out_of_range([], list(range(8)), 8, 4) == 0


class TestEncodeKernel:
    def test_direct_config_costs_nothing(self, big_alloc):
        rep = encode_kernel(big_alloc, 48)
        assert rep.n_setlr == 0

    def test_remap_never_increases_cost(self, big_alloc):
        rep = encode_kernel(big_alloc, 32, restarts=4)
        assert rep.n_out_of_range_after <= rep.n_out_of_range_before
        assert rep.n_setlr == rep.n_out_of_range_after

    def test_permutation_valid(self, big_alloc):
        rep = encode_kernel(big_alloc, 32, restarts=2)
        assert sorted(rep.permutation) == list(range(48))

    def test_deterministic(self, big_alloc):
        a = encode_kernel(big_alloc, 32, restarts=3, seed=1)
        b = encode_kernel(big_alloc, 32, restarts=3, seed=1)
        assert a.permutation == b.permutation

    def test_diff_n_validation(self, big_alloc):
        with pytest.raises(ValueError):
            encode_kernel(big_alloc, 64)

    def test_enable_overhead_constant(self, big_alloc):
        rep = encode_kernel(big_alloc, 32, restarts=1)
        assert rep.enable_overhead == 2  # turn on + turn off (Section 8.2)
