"""Machine models for the two evaluations of Section 10.

* :mod:`repro.machine.cache` — set-associative LRU caches.
* :mod:`repro.machine.lowend` — the ARM/THUMB-like 5-stage in-order
  processor of Table 1, as a trace-driven timing model.
* :mod:`repro.machine.reuse` — one recorded run per input function,
  re-assembled into every setup's trace.
* :mod:`repro.machine.spec` — the machine configurations (Table 1 and the
  Section 10.2 VLIW).

The timing model charges decode zero cycles: the paper's Section 2.1
estimate of the decode hardware (two-gate delay, under 2k transistors)
is pinned as an analytical model in ``tests/test_decoder_model.py``.
"""

from repro.machine.cache import Cache, CacheStats, access_hit_flags
from repro.machine.lowend import CycleReport, LowEndTimingModel, simulate
from repro.machine.reuse import (clear_recorded_runs, derive_execution,
                                 interpret_or_derive, record_and_profile,
                                 record_reference_run)
from repro.machine.spec import LOWEND, VLIW, LowEndConfig, VLIWConfig

__all__ = [
    "Cache",
    "CacheStats",
    "access_hit_flags",
    "CycleReport",
    "LowEndTimingModel",
    "simulate",
    "record_reference_run",
    "record_and_profile",
    "derive_execution",
    "interpret_or_derive",
    "clear_recorded_runs",
    "LOWEND",
    "VLIW",
    "LowEndConfig",
    "VLIWConfig",
]
