"""Workloads for the two evaluations.

* :mod:`repro.workloads.mibench` — ten executable IR kernels modelled on the
  MiBench programs the paper evaluates (Section 10.1).
* :mod:`repro.workloads.spec_loops` — the synthetic population of SPEC2000-
  like innermost loops for the software-pipelining study (Section 10.2).

Random test programs come from :mod:`repro.fuzz.gen`.
"""

from repro.workloads.mibench import MIBENCH, Workload, get_workload
from repro.workloads.spec_loops import LoopSpec, generate_loop_population

__all__ = [
    "MIBENCH",
    "Workload",
    "get_workload",
    "LoopSpec",
    "generate_loop_population",
]
