"""The package's one call into HiGHS, the MILP solver behind both ILPs.

:mod:`repro.regalloc.optimal_spill` decides residence with an ILP and
:mod:`repro.regalloc.remap` proves remap optima with one; both solve here.
:func:`solve_mip` hands the model to scipy's bundled HiGHS core
(``scipy.optimize._highspy._core``) as the arrays HiGHS's array-form
``passModel`` takes.  ``scipy.optimize.milp`` runs the same HiGHS build,
but on every call its wrapper runs two Python loops over every column:
one builds the integrality list from one enum object per column, the
other fills a dual-bound array nothing here reads.  Both hold the GIL, so they
also stall the caller while a worker thread solves.

The adapter gives HiGHS what ``milp`` gives it: the constraint matrix in
the canonical CSC form ``milp`` converts to (:meth:`CscMatrix.from_coo`),
the same float64 bounds and costs, and the same options
(``log_to_console`` off plus the caller's time limit and gap), so it
returns the same ``x``.  ``tests/test_highs.py`` checks that against
``milp`` on the residence models of MiBench and of 60 fuzz functions;
that test is what catches a scipy upgrade that moves or changes
``_core``.

scipy is imported inside the functions, so ``import repro`` stays free
of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

import numpy as np

__all__ = ["CscMatrix", "MipSolution", "solve_mip"]


@dataclass(frozen=True)
class CscMatrix:
    """A constraint matrix in compressed sparse column form: column ``j``
    holds rows ``index[start[j]:start[j + 1]]`` with coefficients
    ``value[...]``.  Build it once per model; solves share it."""

    shape: Tuple[int, int]
    start: Any   # int32, one entry per column plus one
    index: Any   # int32 row indices, ascending within each column
    value: Any   # float64

    @classmethod
    def from_coo(cls, rows: Any, cols: Any, vals: Any,
                 shape: Tuple[int, int]) -> "CscMatrix":
        """The matrix of COO triplets, converted as ``milp`` converts the
        CSR matrix it is given: COO to CSR (duplicates summed), then CSR
        to CSC."""
        from scipy import sparse

        a = sparse.csc_array(sparse.csr_matrix((vals, (rows, cols)),
                                               shape=shape))
        return cls(shape, a.indptr.astype(np.int32),
                   a.indices.astype(np.int32), a.data.astype(np.float64))


@dataclass(frozen=True)
class MipSolution:
    """The solution HiGHS returned; ``optimal`` is False when it stopped
    at a limit with this incumbent."""

    x: Any   # float64 column values
    fun: float
    mip_dual_bound: float
    optimal: bool


def _has_solution(status: Any, objective: float) -> bool:
    """Whether a MIP run with model status ``status`` left a solution to
    read: it is optimal, or it stopped at a time, iteration or solution
    limit with a finite incumbent objective (``milp``'s rule)."""
    from scipy.optimize._highspy import _core

    s = _core.HighsModelStatus
    if status == s.kOptimal:
        return True
    return (status in (s.kTimeLimit, s.kIterationLimit, s.kSolutionLimit)
            and objective != _core.kHighsInf)


def solve_mip(c: Any, a: CscMatrix, row_lb: Any, row_ub: Any,
              col_lb: Any, col_ub: Any, n_int: int, time_limit: float,
              mip_rel_gap: Optional[float] = None) -> Optional[MipSolution]:
    """Minimise ``c @ x`` subject to ``row_lb <= a @ x <= row_ub`` and
    ``col_lb <= x <= col_ub``, with the first ``n_int`` columns integer
    and the rest continuous.

    Returns None when HiGHS found no solution; a run stopped at
    ``time_limit`` (seconds) with an incumbent returns it, not optimal.
    ``mip_rel_gap``, when given, replaces HiGHS's default gap.  HiGHS
    releases the GIL while it runs, so a worker thread may solve while
    the caller works.
    """
    from scipy.optimize._highspy import _core

    n_row, n_col = a.shape
    integrality = np.zeros(n_col, dtype=np.int32)
    integrality[:n_int] = int(_core.HighsVarType.kInteger)

    def f64(v: Any) -> Any:
        return np.ascontiguousarray(v, dtype=np.float64)

    options = _core.HighsOptions()
    options.log_to_console = False
    options.time_limit = time_limit
    if mip_rel_gap is not None:
        options.mip_rel_gap = mip_rel_gap
    solver = _core._Highs()
    solver.passOptions(options)
    solver.passModel(n_col, n_row, len(a.value),
                     int(_core.MatrixFormat.kColwise),
                     int(_core.ObjSense.kMinimize), 0.0,
                     f64(c), f64(col_lb), f64(col_ub), f64(row_lb),
                     f64(row_ub), a.start, a.index, a.value, integrality)
    solver.run()
    status = solver.getModelStatus()
    info = solver.getInfo()
    if not _has_solution(status, info.objective_function_value):
        return None
    return MipSolution(np.array(solver.getSolution().col_value),
                       info.objective_function_value, info.mip_dual_bound,
                       status == _core.HighsModelStatus.kOptimal)
