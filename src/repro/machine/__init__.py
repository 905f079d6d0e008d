"""Machine models for the two evaluations of Section 10.

* :mod:`repro.machine.cache` — set-associative LRU caches.
* :mod:`repro.machine.lowend` — the ARM/THUMB-like 5-stage in-order
  processor of Table 1, as a trace-driven timing model.
* :mod:`repro.machine.spec` — the machine configurations (Table 1 and the
  Section 10.2 VLIW).
"""

from repro.machine.cache import Cache, CacheStats, access_hit_flags
from repro.machine.decoder import DecoderCostModel, DecoderEstimate
from repro.machine.lowend import CycleReport, LowEndTimingModel, simulate
from repro.machine.reuse import (clear_recorded_runs, derive_execution,
                                 interpret_or_derive, record_reference_run)
from repro.machine.spec import LOWEND, VLIW, LowEndConfig, VLIWConfig

__all__ = [
    "DecoderCostModel",
    "DecoderEstimate",
    "Cache",
    "CacheStats",
    "access_hit_flags",
    "CycleReport",
    "LowEndTimingModel",
    "simulate",
    "record_reference_run",
    "derive_execution",
    "interpret_or_derive",
    "clear_recorded_runs",
    "LOWEND",
    "VLIW",
    "LowEndConfig",
    "VLIWConfig",
]
