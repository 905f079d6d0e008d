"""Differential fuzzing: adversarial inputs for the allocation pipeline.

Three layers, mirroring the fuzzing stack regalloc2 built around its
``ion_checker`` (whose counterpart here,
:mod:`repro.regalloc.checker`, runs inside every ``run_setup``):

* :mod:`repro.fuzz.gen` — a seeded random IR generator whose output is
  lint-clean (L001-L009) *by construction*, with knobs for control-flow
  shape, register pressure, call density and memory traffic;
* :mod:`repro.fuzz.harness` — the differential oracle harness: every
  generated program through every setup, cross-checked against the
  interpreters, the encoder round trip and the pipeline's own semantics
  proof, with failing cases shrunk to minimal reproducers;
* :mod:`repro.fuzz.mutate` — a bug injector that corrupts allocations in
  known-miscompiling ways, used to prove the checker actually catches
  real bugs (mutation testing).
"""

from repro.fuzz.gen import (
    FuzzConfig,
    generate_fuzz_function,
    generate_loop_ddg,
    generate_pressure_function,
    knob_matrix,
)
from repro.fuzz.harness import (
    FuzzReport,
    repro_command,
    run_case,
    run_fuzz,
    shrink_config,
)
from repro.fuzz.mutate import (
    MUTATION_KINDS,
    GateResult,
    Mutation,
    enumerate_mutations,
    is_miscompile,
    run_mutation_gate,
)

__all__ = [
    "FuzzConfig",
    "generate_fuzz_function",
    "generate_pressure_function",
    "generate_loop_ddg",
    "knob_matrix",
    "run_case",
    "run_fuzz",
    "FuzzReport",
    "shrink_config",
    "repro_command",
    "Mutation",
    "MUTATION_KINDS",
    "GateResult",
    "enumerate_mutations",
    "is_miscompile",
    "run_mutation_gate",
]
