"""Differential fuzzing: adversarial inputs for the allocation pipeline.

Mirrors the fuzzing stack regalloc2 built around its ``ion_checker``
(whose counterpart here, :mod:`repro.regalloc.checker`, runs inside every
``run_setup``):

* :mod:`repro.fuzz.gen` — the seeded random IR generator, the one source
  of random programs; its output is lint-clean (L001-L009) *by
  construction*, with knobs for control-flow shape, register pressure,
  call density and memory traffic;
* :mod:`repro.fuzz.harness` — the differential oracle harness: every
  generated program through every setup, cross-checked against the
  interpreters, the encoder round trip and the pipeline's own semantics
  proof, with failing cases shrunk to minimal reproducers;
* :mod:`repro.fuzz.moves` — targeted fuzzing of the parallel-move
  resolver.

The mutation gate that proves the checker catches real miscompiles lives
with its test, ``tests/test_fuzz_mutate.py``.
"""

from repro.fuzz.gen import FuzzConfig, generate_fuzz_function
from repro.fuzz.harness import (
    FuzzReport,
    repro_command,
    run_case,
    run_fuzz,
    shrink_config,
)

__all__ = [
    "FuzzConfig",
    "generate_fuzz_function",
    "run_case",
    "run_fuzz",
    "FuzzReport",
    "shrink_config",
    "repro_command",
]
