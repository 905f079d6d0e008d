"""The random IR generator: soundness across the whole knob matrix.

The generator's contract is *well-formed by construction*: every program
it emits must pass ``repro lint --strict`` (no WARNING-or-worse finding)
and interpret to completion without faulting.  This suite sweeps the
bundled knob matrix — per-knob extremes plus the corner combinations —
rather than trusting any single default configuration.
"""

import pytest

from repro.analysis import compute_liveness
from repro.diagnostics import Severity
from repro.fuzz import FuzzConfig, generate_fuzz_function
from repro.ir import Interpreter, format_function
from repro.lint import LintOptions, run_lint

from tests.conftest import knob_matrix, make_pressure_fn

MATRIX = knob_matrix()
SEEDS = (0, 11)


def _case_id(case):
    config, seed = case
    knobs = "-".join(f"{k}={v}" for k, v in sorted(config.to_dict().items())
                     if v != getattr(FuzzConfig(), k))
    return f"seed{seed}-{knobs or 'defaults'}"


@pytest.mark.parametrize(
    "case", [(c, s) for c in MATRIX for s in SEEDS], ids=_case_id)
class TestKnobMatrixSoundness:
    def test_strict_lint_clean(self, case):
        config, seed = case
        fn = generate_fuzz_function(seed, config)
        report = run_lint(fn, LintOptions())
        bad = report.at_least(Severity.WARNING)
        assert not bad, [str(d) for d in bad]

    def test_interprets_without_fault(self, case):
        config, seed = case
        fn = generate_fuzz_function(seed, config)
        for arg in (0, 3):
            result = Interpreter(max_steps=500_000).run(fn, (arg,))
            assert isinstance(result.return_value, int)


class TestDeterminism:
    def test_same_seed_same_program(self):
        config = FuzzConfig(n_regions=3, loop_depth=2, call_density=0.3,
                            mem_density=0.4, fresh_bias=0.5)
        a = generate_fuzz_function(123, config)
        b = generate_fuzz_function(123, config)
        assert format_function(a) == format_function(b)

    def test_different_seeds_diverge(self):
        texts = {format_function(generate_fuzz_function(s))
                 for s in range(8)}
        assert len(texts) > 1

    def test_pressure_function_stable(self):
        a = make_pressure_fn(nvals=12, seed=3)
        b = make_pressure_fn(nvals=12, seed=3)
        assert format_function(a) == format_function(b)


class TestKnobs:
    def test_base_values_control_pressure(self):
        low = generate_fuzz_function(5, FuzzConfig(base_values=4))
        high = generate_fuzz_function(5, FuzzConfig(base_values=16))
        assert (compute_liveness(high).max_pressure()
                > compute_liveness(low).max_pressure())

    def test_region_count_controls_size(self):
        small = generate_fuzz_function(7, FuzzConfig(n_regions=2))
        big = generate_fuzz_function(7, FuzzConfig(n_regions=8))
        assert big.num_instructions() > small.num_instructions()


class TestFuzzConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(n_regions=0),
        dict(loop_depth=-1),
        dict(base_values=1),
        dict(ops_per_block=1),
        dict(loop_trip=0),
        dict(fresh_bias=1.5),
        dict(call_density=-0.1),
        dict(mem_density=2.0),
    ])
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            FuzzConfig(**kwargs)

    def test_dict_roundtrip(self):
        config = FuzzConfig(n_regions=2, loop_depth=2, base_values=5,
                            ops_per_block=3, loop_trip=4, fresh_bias=0.5,
                            call_density=0.3, mem_density=0.4)
        assert FuzzConfig.from_dict(config.to_dict()) == config

    def test_cli_args_name_every_knob(self):
        args = FuzzConfig().cli_args()
        for flag in ("--regions", "--loop-depth", "--values", "--ops",
                     "--trip", "--fresh-bias", "--calls", "--mem"):
            assert flag in args

    def test_matrix_covers_extremes(self):
        assert len(MATRIX) >= 20
        assert any(c.loop_depth == 0 for c in MATRIX)
        assert any(c.loop_depth >= 2 for c in MATRIX)
        assert any(c.call_density > 0 for c in MATRIX)
        assert any(c.mem_density > 0 for c in MATRIX)
        assert any(c.call_density > 0 and c.mem_density > 0 for c in MATRIX)
