"""The HiGHS adapter against ``scipy.optimize.milp``, its reference oracle.

:func:`repro.regalloc.highs.solve_mip` hands HiGHS the arrays ``milp``
would hand it, so on every residence model it must return ``milp``'s
``x`` bit for bit and the same objective.  A scipy upgrade that moves
``scipy.optimize._highspy._core`` or changes what ``milp`` passes fails
here first.
"""

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.optimize._highspy import _core

from repro.analysis.frequency import estimate_block_frequencies
from repro.analysis.profile import block_frequencies_from_counts
from repro.fuzz import generate_fuzz_function
from repro.machine import record_reference_run
from repro.regalloc import highs
from repro.regalloc.optimal_spill import _MAX_ILP_VARS, _Residence, _run_highs
from repro.workloads.mibench import MIBENCH

STATUS = _core.HighsModelStatus
LIMITS = (STATUS.kTimeLimit, STATUS.kIterationLimit, STATUS.kSolutionLimit)


def _milp(model):
    """The residence model solved the way ``_run_highs`` once solved it."""
    n_vars = len(model.c)
    return milp(
        c=model.c,
        constraints=LinearConstraint(
            sparse.csr_matrix((model.vals, (model.rows, model.cols)),
                              shape=model.shape),
            model.lb, model.ub),
        bounds=Bounds(model.var_lb, model.var_ub),
        integrality=np.arange(n_vars) < len(model.x_index),
        options={"time_limit": 60.0},
    )


def _assert_same_solution(fn, k, freq):
    """Solve ``fn``'s residence model at ``k`` both ways; 1 if it has a
    column to solve, else 0."""
    model = _Residence.build(fn, k, freq, True, 1.0, 1.0,
                             _MAX_ILP_VARS).model
    if model is None or not model.x_index:
        return 0
    want = _milp(model)
    got = highs.solve_mip(model.c, model.matrix, model.lb, model.ub,
                          model.var_lb, model.var_ub,
                          n_int=len(model.x_index), time_limit=60.0)
    assert want.success, fn.name
    assert got is not None and got.optimal, fn.name
    assert got.x.dtype == want.x.dtype
    assert got.x.tobytes() == want.x.tobytes(), (fn.name, k)
    assert got.fun == want.fun, (fn.name, k)
    assert _run_highs(model).x.tobytes() == want.x.tobytes()
    return 1


@pytest.mark.parametrize("profile", ("static", "recorded"))
@pytest.mark.parametrize("k", (7, 8, 12))
def test_matches_milp_on_mibench(k, profile):
    solved = 0
    for w in MIBENCH:
        fn = w.function()
        if profile == "recorded":
            rec = record_reference_run(fn, w.default_args)
            freq = block_frequencies_from_counts(fn, rec.block_instr_counts)
        else:
            freq = estimate_block_frequencies(fn)
        solved += _assert_same_solution(fn, k, freq)
    assert solved == len(MIBENCH)


@pytest.mark.parametrize("block", range(4))
def test_matches_milp_on_fuzz(block):
    for seed in range(block * 15, block * 15 + 15):
        fn = generate_fuzz_function(seed)
        _assert_same_solution(fn, 8, estimate_block_frequencies(fn))


class TestStatusMapping:
    def test_optimal_is_a_solution(self):
        assert highs._has_solution(STATUS.kOptimal, 3.0)

    @pytest.mark.parametrize("status", LIMITS)
    def test_limit_with_incumbent_is_a_solution(self, status):
        assert highs._has_solution(status, 3.0)

    @pytest.mark.parametrize("status", LIMITS)
    def test_limit_without_incumbent_is_none(self, status):
        assert not highs._has_solution(status, _core.kHighsInf)

    @pytest.mark.parametrize("status", (STATUS.kInfeasible,
                                        STATUS.kUnbounded,
                                        STATUS.kModelError))
    def test_failure_is_none(self, status):
        assert not highs._has_solution(status, 0.0)

    def test_infeasible_model_returns_none(self):
        # x0 + x1 >= 3 over two binaries
        a = highs.CscMatrix.from_coo(np.array([0, 0]), np.array([0, 1]),
                                     np.array([1.0, 1.0]), (1, 2))
        got = highs.solve_mip(np.ones(2), a, np.array([3.0]),
                              np.array([np.inf]), np.zeros(2), np.ones(2),
                              n_int=2, time_limit=60.0)
        assert got is None

    def test_optimal_solution_and_bound(self):
        # x0 + x1 >= 1 over two binaries, x1 cheaper
        a = highs.CscMatrix.from_coo(np.array([0, 0]), np.array([0, 1]),
                                     np.array([1.0, 1.0]), (1, 2))
        got = highs.solve_mip(np.array([2.0, 1.0]), a, np.array([1.0]),
                              np.array([np.inf]), np.zeros(2), np.ones(2),
                              n_int=2, time_limit=60.0, mip_rel_gap=0.0)
        assert got.optimal
        assert got.x.tolist() == [0.0, 1.0]
        assert got.fun == got.mip_dual_bound == 1.0
