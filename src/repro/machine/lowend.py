"""Trace-driven timing model of the low-end processor (Section 10.1).

The interpreter (:mod:`repro.ir.interp`) produces the dynamic instruction
stream; this model assigns cycles to it:

* one cycle per instruction issued (single-issue in-order core);
* I-cache access per instruction fetch (PC = static index × instruction
  width), misses stall for the miss penalty;
* D-cache access for loads/stores — spill traffic included, which is exactly
  how spills hurt on this machine class;
* extra latency for multi-cycle ALU ops and taken-branch redirect penalty;
* ``set_last_reg`` occupies a fetch/decode slot (and I-cache bandwidth) but
  never executes — the paper's "removed after decoding"; it contributes one
  cycle like any single-cycle instruction but produces no data-side traffic.

``time`` takes the fast interpreter engine's
:class:`~repro.ir.trace.ColumnarTrace` and times it with whole-trace
numpy passes (latency and branch accounting plus the batch LRU of
:func:`repro.machine.cache.access_hit_flags`).  The per-entry loop it
replaced lives in ``tests/test_sim_columnar.py`` as the oracle ``time``
is compared against, field for field.

The absolute numbers are not SimpleScalar's; the relative effects the paper
measures (spills vs ``set_last_reg`` instructions vs code size) are modelled
directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.ir.function import Function
from repro.ir.instr import COND_BRANCH_OPS
from repro.ir.interp import ExecutionResult, Interpreter
from repro.ir.trace import NO_ADDR, OP_CODE, OP_NAMES, ColumnarTrace
from repro.machine.cache import access_hit_flags
from repro.machine.spec import LOWEND, LowEndConfig

__all__ = ["CycleReport", "LowEndTimingModel", "simulate"]

#: OP_NAMES-indexed table: does this opcode redirect fetch when taken?
_IS_BRANCH_CODE: Tuple[bool, ...] = tuple(
    op in COND_BRANCH_OPS or op == "br" for op in OP_NAMES
)
_SETLR_CODE = OP_CODE["setlr"]


@dataclass
class CycleReport:
    """Cycle and energy accounting for one run."""

    cycles: int
    instructions: int
    icache_misses: int
    dcache_misses: int
    dcache_accesses: int
    branch_penalties: int
    setlr_executed: int
    config: LowEndConfig = LOWEND

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0

    @property
    def fetch_bytes(self) -> int:
        """Instruction bytes fetched — the I-cache traffic the paper's
        THUMB citations measure energy by."""
        return self.instructions * self.config.instr_bytes

    @property
    def energy(self) -> float:
        """Relative energy estimate (arbitrary units).

        The paper reports no power numbers ("we did not present results on
        power") but leans on energy arguments throughout Section 1; this
        estimate makes the trade inspectable: fetch traffic scales with
        instruction width and count (``set_last_reg`` pays here), data
        traffic with loads/stores (spills pay here), misses dominate.
        """
        cfg = self.config
        return (
            self.fetch_bytes * cfg.energy_icache_per_byte
            + self.dcache_accesses * cfg.energy_dcache_access
            + (self.icache_misses + self.dcache_misses) * cfg.energy_cache_miss
            + self.cycles * cfg.energy_core_per_cycle
        )


class LowEndTimingModel:
    """Assign cycles to an execution trace."""

    def __init__(self, config: LowEndConfig = LOWEND) -> None:
        self.config = config

    def time(self, trace: ColumnarTrace) -> CycleReport:
        """Assign cycles (and cache/energy events) to a dynamic trace."""
        cfg = self.config
        si = trace.static_index
        opc = trace.op_code
        mem = trace.mem_addr
        n = int(si.size)
        if n == 0:
            return CycleReport(0, 0, 0, 0, 0, 0, 0, cfg)

        lat = np.asarray(cfg.extra_latency_table(OP_NAMES), dtype=np.int64)
        extra = int(lat[opc].sum())

        is_br = np.asarray(_IS_BRANCH_CODE, dtype=bool)[opc]
        # redirect penalty when the previous branch was taken: the next
        # fetch is not the fall-through static index
        branch_penalties = int((is_br[:-1] & (si[1:] != si[:-1] + 1)).sum())

        ihits = access_hit_flags(si * cfg.instr_bytes, cfg.icache_size,
                                 cfg.icache_line, cfg.icache_assoc)
        icache_misses = n - int(ihits.sum())

        daddr = mem[mem != NO_ADDR] * 4
        dcache_accesses = int(daddr.size)
        dhits = access_hit_flags(daddr, cfg.dcache_size, cfg.dcache_line,
                                 cfg.dcache_assoc)
        dcache_misses = dcache_accesses - int(dhits.sum())

        cycles = (
            n
            + extra
            + branch_penalties * cfg.taken_branch_penalty
            + (icache_misses + dcache_misses) * cfg.cache_miss_penalty
        )
        return CycleReport(
            cycles=cycles,
            instructions=n,
            icache_misses=icache_misses,
            dcache_misses=dcache_misses,
            dcache_accesses=dcache_accesses,
            branch_penalties=branch_penalties,
            setlr_executed=int((opc == _SETLR_CODE).sum()),
            config=cfg,
        )


def simulate(fn: Function, args: tuple = (),
             config: LowEndConfig = LOWEND,
             max_steps: int = 2_000_000) -> tuple:
    """Run ``fn`` and time its trace; returns ``(ExecutionResult, CycleReport)``."""
    result: ExecutionResult = Interpreter(max_steps=max_steps).run(fn, args)
    return result, LowEndTimingModel(config).time(result.columnar)
