"""The targeted ``moves`` fuzz target (docs/moves.md).

The campaign must be deterministic and jobs-invariant like the main
harness, the generator must stay inside its advertised envelope, known
seeds must pass every oracle (the smoke the CI job runs at scale), and
the shrinker must be a no-op on healthy cases while actually minimizing
failing ones (exercised against an artificial oracle breaker).
"""

from dataclasses import replace

import pytest

from repro.fuzz.moves import (MovesCase, format_moves_failure,
                              generate_moves_case, moves_case_seed,
                              moves_repro_command, run_explicit_case,
                              run_moves_case, run_moves_fuzz,
                              shrink_moves_case)
from repro.parallel import derive_seed


class TestGenerator:
    @pytest.mark.parametrize("seed", range(50))
    def test_envelope(self, seed):
        case = generate_moves_case(seed)
        assert 2 <= case.reg_n <= 16
        regs = {r for pair in case.mapping for r in pair}
        assert all(0 <= r < case.reg_n for r in regs)
        dsts = [d for d, _ in case.mapping]
        assert len(set(dsts)) == len(dsts)  # dsts never repeat
        assert all(d != s for d, s in case.mapping)  # self-moves dropped
        if case.scratch is not None:
            assert case.scratch not in regs

    def test_deterministic(self):
        assert generate_moves_case(99) == generate_moves_case(99)

    def test_seed_derivation_matches_parallel_contract(self):
        assert moves_case_seed(7, 3) == derive_seed(7, "fuzz-moves", 3)

    def test_varies_with_seed(self):
        cases = {generate_moves_case(s) for s in range(30)}
        assert len(cases) > 20


class TestCampaign:
    def test_known_seeds_pass_all_oracles(self):
        report = run_moves_fuzz(base_seed=1, n_cases=60)
        assert report.ok, [f["failures"] for f in report.failures]
        assert len(report.cases) == 60
        assert "60 moves case(s)" in report.summary()

    def test_jobs_invariance(self):
        serial = run_moves_fuzz(base_seed=5, n_cases=40, jobs=1)
        parallel = run_moves_fuzz(base_seed=5, n_cases=40, jobs=0)
        assert serial.cases == parallel.cases

    def test_case_outcome_is_reproducible(self):
        seed = moves_case_seed(1, 17)
        assert run_moves_case(seed) == run_moves_case(seed)


class TestShrinker:
    def test_noop_on_healthy_case(self):
        seed = moves_case_seed(1, 4)
        case = generate_moves_case(seed)
        assert shrink_moves_case(seed, case) == case

    def test_minimizes_failing_case(self):
        # force a failure: a scratch that secretly participates makes the
        # resolver raise, and keeps raising as long as the offending pair
        # survives — the shrinker must strip everything else
        case = MovesCase(reg_n=8,
                         mapping=((0, 1), (2, 3), (4, 5)),
                         scratch=1)
        outcome = run_explicit_case(0, case)
        assert outcome["failures"]
        assert outcome["failures"][0]["oracle"] == "resolver-crash"
        shrunk = shrink_moves_case(0, case)
        assert shrunk.mapping == ((0, 1),)
        assert shrunk.scratch == 1
        assert run_explicit_case(0, shrunk)["failures"]


class TestReporting:
    def test_repro_command_shape(self):
        assert moves_repro_command(42) \
            == "python -m repro fuzz moves --replay 42"

    def test_failure_report_is_self_contained(self):
        case = MovesCase(reg_n=4, mapping=((0, 1),), scratch=1)
        outcome = run_explicit_case(7, case)
        text = format_moves_failure(outcome,
                                    shrunk=replace(case, scratch=None))
        assert "seed=7" in text
        assert "shrunk to: reg_n=4 {r0<-r1} scratch=None" in text
        assert "resolver-crash" in text
        assert "python -m repro fuzz moves --replay 7" in text
