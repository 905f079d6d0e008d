"""Deep tests for the optimal-spill internals: the plan-cost evaluator,
residence vectors, the splitting codegen's invariants, and the residence
problem built once per function (non-binding shortcut, re-bounded
budgets, the speculative slack-retry solve)."""

import threading

import pytest

from repro.analysis import compute_liveness
from repro.analysis.frequency import estimate_block_frequencies
from repro.ir import Interpreter, parse_function, vreg
from repro.ir.printer import format_function
from repro.regalloc import highs, optimal_spill
from repro.regalloc.iterated import iterated_allocate
from repro.regalloc.optimal_spill import (
    _MAX_ILP_VARS,
    ResidencePlan,
    _build_ilp_model,
    _forced_points,
    _ilp_plan,
    _Points,
    _Residence,
    _run_highs,
    _solve_greedy,
    apply_residence,
    decide_residence,
    optimal_spill_allocate,
    residence_plan_cost,
)

from tests.conftest import make_pressure_fn


class TestPlanCostEvaluator:
    def test_zero_for_unspilled_plan(self, sum_fn):
        plan = decide_residence(sum_fn, 4)
        assert plan.spilled == set()
        assert residence_plan_cost(sum_fn, plan) == 0.0

    def test_ilp_objective_matches_evaluator(self, pressure_fn):
        plan = decide_residence(pressure_fn, 8, use_ilp=True)
        assert plan.solver == "ilp"
        assert residence_plan_cost(pressure_fn, plan) == pytest.approx(
            plan.objective
        )

    def test_load_cost_weighting(self, pressure_fn):
        plan = decide_residence(pressure_fn, 8, use_ilp=False)
        cheap = residence_plan_cost(pressure_fn, plan, load_cost=1.0)
        pricey = residence_plan_cost(pressure_fn, plan, load_cost=5.0)
        assert pricey > cheap

    def test_frequency_weighting(self, pressure_fn):
        plan = decide_residence(pressure_fn, 8, use_ilp=False)
        flat = residence_plan_cost(pressure_fn, plan, freq={})
        hot = residence_plan_cost(
            pressure_fn, plan,
            freq={b.name: 100.0 for b in pressure_fn.blocks},
        )
        assert hot > flat


class TestResidenceVectors:
    def test_is_resident_semantics(self, pressure_fn):
        plan = decide_residence(pressure_fn, 8)
        liveness = compute_liveness(pressure_fn)
        for v in plan.spilled:
            # a spilled value must be non-resident somewhere it is live
            assert any(
                not plan.is_resident(v, b.name, j)
                for b in pressure_fn.blocks
                for j in range(len(b.instrs) + 1)
            )

    def test_unspilled_always_resident(self, pressure_fn):
        plan = decide_residence(pressure_fn, 8)
        unspilled = [
            r for r in pressure_fn.registers()
            if r.virtual and r not in plan.spilled
        ]
        assert unspilled
        v = unspilled[0]
        assert plan.is_resident(v, pressure_fn.blocks[0].name, 0)


class TestSplittingInvariants:
    def test_no_consecutive_redundant_reloads(self, pressure_fn):
        plan = decide_residence(pressure_fn, 8)
        split_fn, _ = apply_residence(pressure_fn, plan)
        # a reload followed immediately by a reload of the same slot with
        # no intervening use would be waste the ILP cannot emit
        for block in split_fn.blocks:
            for a, b in zip(block.instrs, block.instrs[1:]):
                if a.op == "ldslot" and b.op == "ldslot":
                    assert a.imm != b.imm

    def test_stores_only_for_dirty_values(self):
        # a value loaded and only read needs no write-back
        fn = parse_function("""
func f(v0, v1, v2, v3, v4, v5, v6, v7, v8):
entry:
    add v9, v0, v1
    add v9, v9, v2
    add v9, v9, v3
    add v9, v9, v4
    add v9, v9, v5
    add v9, v9, v6
    add v9, v9, v7
    add v9, v9, v8
    add v9, v9, v0
    add v9, v9, v1
    ret v9
""")
        plan = decide_residence(fn, 4)
        split_fn, _ = apply_residence(fn, plan)
        # params are stored once (dirty on entry); but reloaded read-only
        # segments never store again: each spilled slot stores at most...
        stores = [i.imm for i in split_fn.instructions() if i.op == "stslot"]
        assert len(stores) == len(set(stores)), \
            "read-only values were written back more than once"
        args = tuple(range(1, 10))
        assert Interpreter().run(split_fn, args).return_value == \
            Interpreter().run(fn, args).return_value

    def test_split_keeps_block_structure(self, pressure_fn):
        plan = decide_residence(pressure_fn, 8)
        split_fn, _ = apply_residence(pressure_fn, plan)
        assert [b.name for b in split_fn.blocks] == \
            [b.name for b in pressure_fn.blocks]

    @pytest.mark.parametrize("k", (6, 8, 10))
    def test_semantics_across_budgets(self, k):
        fn = make_pressure_fn(nvals=12, seed=3, name=f"b{k}")
        ref = Interpreter().run(fn, (4,)).return_value
        plan = decide_residence(fn, k)
        split_fn, _ = apply_residence(fn, plan)
        assert Interpreter().run(split_fn, (4,)).return_value == ref


# ----------------------------------------------------------------------
# one residence problem per function
# ----------------------------------------------------------------------


#: two physical registers live across the vreg points, so capacity rows
#: carry a nonzero physical pressure
PHYS_FN = """
func f(v0, v1):
entry:
    li r0, 5
    li r1, 7
    add v2, v0, v1
    add v3, v2, v0
    add v4, v3, r0
    add v5, v4, r1
    ret v5
"""


def _mibench():
    from repro.workloads.mibench import MIBENCH

    return [(w.name, w.function()) for w in MIBENCH]


def _problem(fn, k, freq=None):
    freq = estimate_block_frequencies(fn) if freq is None else freq
    return _Residence.build(fn, k, freq, True, 1.0, 1.0, _MAX_ILP_VARS)


def _plan_key(plan):
    return (plan.residence, plan.spilled, repr(plan.objective), plan.solver)


def _always_solving_decide(fn, k, freq, use_ilp=True, load_cost=1.0,
                           store_cost=1.0):
    """``decide_residence`` before the residence problem was built once:
    a fresh model per budget, and HiGHS on every model with a column."""
    pts = _Points.build(fn, compute_liveness(fn))
    forced = _forced_points(fn)
    if use_ilp:
        model = _build_ilp_model(fn, k, pts, freq, forced, load_cost,
                                 store_cost, _MAX_ILP_VARS)
        if model is not None:
            if not model.x_index:
                return ResidencePlan({}, set(), 0.0, "ilp")
            res = _run_highs(model)
            if res is not None:
                return _ilp_plan(fn, pts, model, res)
    return _solve_greedy(fn, k, pts, freq, forced)


def _serial_optimal_spill_allocate(fn, k, use_ilp=True,
                                   load_cost=1.0, store_cost=1.0,
                                   freq=None):
    """The serial O-spill pipeline: solve k, allocate, and only then solve
    the k-1 slack retry — the oracle the speculative version must match."""
    if freq is None:
        freq = estimate_block_frequencies(fn)

    def attempt(budget):
        plan = _always_solving_decide(fn, budget, freq, use_ilp=use_ilp,
                                      load_cost=load_cost,
                                      store_cost=store_cost)
        split_fn, _ = apply_residence(fn, plan)
        result = iterated_allocate(split_fn, k, freq=dict(freq))
        result.stats["ospill_objective"] = plan.objective
        result.stats["ospill_solver"] = 1.0 if plan.solver == "ilp" else 0.0
        result.stats["ospill_spilled_ranges"] = float(len(plan.spilled))
        result.stats["ospill_budget"] = float(budget)
        return result

    def weighted_spill_cost(result):
        return sum(
            freq.get(block.name, 1.0)
            for block in result.fn.blocks
            for instr in block.instrs
            if instr.op in ("ldslot", "stslot")
        )

    best = attempt(k)
    if best.rounds > 1 and k > 2:
        retry = attempt(k - 1)
        if weighted_spill_cost(retry) < weighted_spill_cost(best):
            best = retry
    return best


def _result_key(result):
    return (format_function(result.fn), result.rounds,
            sorted((r.id, r.cls, c) for r, c in result.coloring.items()),
            repr(sorted(result.stats.items())))


def _ospill_key(name):
    """One MiBench ``ospill`` allocation, as comparable plain data."""
    from repro.workloads.mibench import MIBENCH

    fn = next(w for w in MIBENCH if w.name == name).function()
    return _result_key(optimal_spill_allocate(fn, 8))


class TestNonBindingShortcut:
    def test_mibench_census(self):
        """The MiBench models no capacity row can bind at the two budgets
        the paper setups use (ospill k=8, coalesce k=12)."""
        free = {
            (name, k)
            for name, fn in _mibench() for k in (8, 12)
            if not _problem(fn, k).needs_solver(k)
        }
        assert free == {("bitcount", 8)} | {
            (name, 12) for name in ("bitcount", "crc32", "qsort", "dijkstra",
                                    "stringsearch", "susan", "rijndael")
        }

    @pytest.mark.parametrize("k", (7, 8, 12))
    def test_highs_returns_the_shortcut_plan(self, k):
        checked = 0
        for name, fn in _mibench():
            problem = _problem(fn, k)
            if problem.needs_solver(k):
                continue
            res = _run_highs(problem.model)
            assert res is not None, name
            solved = _ilp_plan(fn, problem.pts, problem.model, res)
            assert _plan_key(solved) == _plan_key(problem.decide(k)), name
            assert _plan_key(solved) == _plan_key(
                ResidencePlan({}, set(), 0.0, "ilp"))
            checked += 1
        assert checked == {7: 0, 8: 1, 12: 7}[k]

    def test_shortcut_skips_highs(self, monkeypatch):
        fn = dict(_mibench())["bitcount"]
        monkeypatch.setattr(optimal_spill, "_run_highs", None)
        plan = decide_residence(fn, 8)
        assert (plan.spilled, plan.objective, plan.solver) == \
            (set(), 0.0, "ilp")

    def test_physical_pressure_counts_toward_binding(self):
        fn = parse_function(PHYS_FN)
        problem = _problem(fn, 4)
        # two vregs plus two physical registers live at once
        assert max(problem.pts.phys.values()) == 2
        assert problem.needs_solver(3)
        assert not problem.needs_solver(4)

    def test_negative_cost_needs_solver(self, pressure_fn):
        freq = estimate_block_frequencies(pressure_fn)
        problem = _Residence.build(pressure_fn, 64, freq, True, -1.0, 1.0,
                                   _MAX_ILP_VARS)
        # nothing can bind at 64 registers, but 0 is no longer a lower bound
        assert not (problem.model.cap_live + problem.model.cap_phys
                    > 64).any()
        assert problem.needs_solver(64)

    def test_oversize_model_keeps_greedy(self):
        fn = dict(_mibench())["bitcount"]
        plan = decide_residence(fn, 8, max_ilp_vars=10)
        assert (plan.spilled, plan.solver) == (set(), "greedy")


class TestRebound:
    _ARRAYS = ("c", "rows", "cols", "vals", "lb", "ub", "var_lb", "var_ub")

    def _assert_equal(self, got, want):
        assert list(got.x_index.items()) == list(want.x_index.items())
        assert got.shape == want.shape
        for name in self._ARRAYS:
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype, name
            assert a.tobytes() == b.tobytes(), name

    def _build(self, fn, k):
        pts = _Points.build(fn, compute_liveness(fn))
        return _build_ilp_model(fn, k, pts, estimate_block_frequencies(fn),
                                _forced_points(fn), 1.0, 1.0, _MAX_ILP_VARS)

    @pytest.mark.parametrize("k", (8, 12))
    def test_mibench_k_minus_one_equals_fresh_build(self, k):
        for _, fn in _mibench():
            self._assert_equal(self._build(fn, k).rebound(k - 1),
                               self._build(fn, k - 1))

    def test_physical_pressure_rebound(self):
        fn = parse_function(PHYS_FN)
        base = self._build(fn, 8)
        for k in (2, 3, 7, 12):
            self._assert_equal(base.rebound(k), self._build(fn, k))
        # re-bounding copies ub and shares everything else
        assert base.rebound(7).ub is not base.ub
        assert base.rebound(7).rows is base.rows
        assert base.rebound(7).matrix is base.matrix


class TestSpeculativeRetry:
    def test_matches_serial_oracle_on_mibench(self):
        for name, fn in _mibench():
            for k in (6, 8):
                assert _result_key(optimal_spill_allocate(fn, k)) == \
                    _result_key(_serial_optimal_spill_allocate(fn, k)), \
                    (name, k)

    def test_matches_serial_oracle_with_profile_freq(self):
        from repro.analysis.profile import block_frequencies_from_counts
        from repro.machine import record_reference_run
        from repro.workloads.mibench import MIBENCH

        for w in MIBENCH:
            fn = w.function()
            rec = record_reference_run(fn, w.default_args)
            freq = block_frequencies_from_counts(fn, rec.block_instr_counts)
            assert _result_key(optimal_spill_allocate(fn, 8, freq=freq)) == \
                _result_key(_serial_optimal_spill_allocate(fn, 8,
                                                           freq=freq)), w.name

    def test_highs_call_census(self, monkeypatch):
        """MiBench x {ospill, coalesce}, profiled as the figure grid runs
        it, calls HiGHS 36 times where the serial path called it 40: the 8
        non-binding models are skipped, and each of the 14 binding ospill
        functions solves its k-1 model on the worker thread, 10 of which
        feed a retry."""
        from repro.analysis.profile import block_frequencies_from_counts
        from repro.machine import record_reference_run
        from repro.regalloc import run_setup
        from repro.workloads.mibench import MIBENCH

        profiled = []
        for w in MIBENCH:
            fn = w.function()
            rec = record_reference_run(fn, w.default_args)
            profiled.append(
                (fn, block_frequencies_from_counts(fn, rec.block_instr_counts)))

        real_solve = highs.solve_mip
        on_main = []

        def counting_solve(*args, **kwargs):
            on_main.append(threading.current_thread()
                           is threading.main_thread())
            return real_solve(*args, **kwargs)

        real_decide = _Residence.decide
        speculated = []

        def counting_decide(self, k, solved=None):
            if solved is not None:
                speculated.append(k)
            return real_decide(self, k, solved)

        monkeypatch.setattr(highs, "solve_mip", counting_solve)
        monkeypatch.setattr(_Residence, "decide", counting_decide)
        for fn, freq in profiled:
            for setup in ("ospill", "coalesce"):
                run_setup(fn, setup, freq=freq, remap_restarts=1)
        assert len(on_main) == 36
        assert on_main.count(False) == 14
        assert len(speculated) == 10
        # solves whose plan is used: every calling-thread solve plus the
        # speculative solves a retry consumed
        assert on_main.count(True) + len(speculated) == 32


class TestRetryThreadHygiene:
    def _decided(self, monkeypatch):
        budgets = []
        real_decide = _Residence.decide

        def spy(self, k, solved=None):
            budgets.append(k)
            return real_decide(self, k, solved)

        monkeypatch.setattr(_Residence, "decide", spy)
        return budgets

    @pytest.mark.parametrize("name,budgets", [("crc32", [8, 7]),
                                              ("qsort", [8])])
    def test_no_thread_outlives_the_call(self, monkeypatch, name, budgets):
        fn = dict(_mibench())[name]
        assert _problem(fn, 8).needs_solver(8)  # a k-1 solve is started
        decided = self._decided(monkeypatch)
        before = threading.active_count()
        optimal_spill_allocate(fn, 8)
        assert threading.active_count() == before
        assert decided == budgets  # retry path, no-retry path

    def test_thread_joined_when_attempt_raises(self, monkeypatch):
        fn = dict(_mibench())["crc32"]
        finished = []
        real_solve = _Residence.solve

        def solve(self, k):
            res = real_solve(self, k)
            finished.append(k)
            return res

        def broken(*args, **kwargs):
            raise RuntimeError("coloring failed")

        monkeypatch.setattr(_Residence, "solve", solve)
        monkeypatch.setattr(optimal_spill, "iterated_allocate", broken)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="coloring failed"):
            optimal_spill_allocate(fn, 8)
        assert threading.active_count() == before
        assert sorted(finished) == [7, 8]  # the k-1 solve ran to the end

    def test_failed_speculative_solve_falls_back_to_greedy(self,
                                                            monkeypatch):
        fn = dict(_mibench())["crc32"]
        real_solve = highs.solve_mip
        calls = []

        def solve_without_k_minus_one(c, a, row_lb, row_ub, *args,
                                      **kwargs):
            # MiBench has no physical pressure: a budget-k model's
            # largest row bound is k
            calls.append(row_ub.max())
            if row_ub.max() == 7:
                return None
            return real_solve(c, a, row_lb, row_ub, *args, **kwargs)

        greedy = []
        real_greedy = optimal_spill._solve_greedy

        def spy_greedy(fn, k, *args):
            greedy.append(k)
            return real_greedy(fn, k, *args)

        monkeypatch.setattr(highs, "solve_mip", solve_without_k_minus_one)
        monkeypatch.setattr(optimal_spill, "_solve_greedy", spy_greedy)
        got = optimal_spill_allocate(fn, 8)
        assert sorted(calls) == [7, 8]  # no second HiGHS call for k-1
        assert greedy == [7]
        want = _serial_optimal_spill_allocate(fn, 8)
        assert _result_key(got) == _result_key(want)

    def test_parallel_map_matches_serial(self):
        from repro.parallel import parallel_map
        from repro.workloads.mibench import MIBENCH

        names = [w.name for w in MIBENCH]
        assert parallel_map(_ospill_key, names, jobs=2) == \
            [_ospill_key(name) for name in names]
