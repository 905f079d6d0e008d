"""Software pipelining substrate (paper Sections 8.1 and 10.2).

* :mod:`repro.swp.ddg` — loop data-dependence graphs, ResMII/RecMII.
* :mod:`repro.swp.modulo` — iterative modulo scheduling (Rau-style).
* :mod:`repro.swp.rotalloc` — kernel register allocation: modulo renaming,
  MaxLive, spill insertion when pressure exceeds the architected registers,
  and modulo variable expansion statistics.
* :mod:`repro.swp.diffswp` — differential remapping over the scheduled
  kernel: reports the promoted ``set_last_reg`` repairs (Section 8.1).
"""

from repro.swp.ddg import Dep, LoopDDG, LoopOp
from repro.swp.modulo import ModuloSchedule, ScheduleError, modulo_schedule
from repro.swp.rotalloc import KernelAllocation, allocate_kernel
from repro.swp.diffswp import SwpEncodingReport, encode_kernel

__all__ = [
    "Dep",
    "LoopDDG",
    "LoopOp",
    "ModuloSchedule",
    "ScheduleError",
    "modulo_schedule",
    "KernelAllocation",
    "allocate_kernel",
    "SwpEncodingReport",
    "encode_kernel",
]
