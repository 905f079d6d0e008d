"""Machine configurations for both evaluations.

``LOWEND`` reproduces Table 1's ARM/THUMB-like machine: a 5-stage in-order
single-issue core where the ISA directly encodes 8 registers although the
hardware has 16.  ``VLIW`` is the Section 10.2 machine: 4 functional units,
2 memory ports, 32 architected / 64 physical registers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

__all__ = ["LowEndConfig", "VLIWConfig", "LOWEND", "VLIW"]


@dataclass(frozen=True)
class LowEndConfig:
    """The Table 1 low-end processor model."""

    name: str = "arm-thumb-like"
    pipeline_stages: int = 5
    issue_width: int = 1
    architected_regs: int = 8      # directly encodable in the 3-bit field
    physical_regs: int = 16        # present in hardware (ARM-like)
    instr_bytes: int = 2           # 16-bit compact ISA
    icache_size: int = 8 * 1024
    icache_line: int = 32
    icache_assoc: int = 2
    dcache_size: int = 2 * 1024   # low-end cores carry small D-caches
    dcache_line: int = 16
    dcache_assoc: int = 2
    cache_miss_penalty: int = 20
    taken_branch_penalty: int = 1
    extra_latency: Dict[str, int] = field(
        # loads pay a load-use bubble even on a hit; multiplies and divides
        # are iterative on this machine class
        default_factory=lambda: {
            "mul": 1, "div": 7, "rem": 7, "ld": 1, "ldslot": 1,
        }
    )
    # relative energy per event, in arbitrary units.  Ratios follow the
    # paper's Section 1 citations: caches dominate the budget, the I-cache
    # draws ~40% more than the D-cache [19], and a miss costs roughly an
    # order of magnitude more than a hit
    energy_icache_per_byte: float = 0.7
    energy_dcache_access: float = 1.0
    energy_cache_miss: float = 10.0
    energy_core_per_cycle: float = 0.5

    def extra_latency_table(self, op_names: Tuple[str, ...]) -> Tuple[int, ...]:
        """The ``extra_latency`` map as a dense table over ``op_names``.

        The vectorized timing model indexes this with an opcode-code
        column; ops without an entry cost zero extra cycles, matching
        ``extra_latency.get(op, 0)``.  (A method rather than a cached
        attribute because the dict field keeps this dataclass unhashable.)
        """
        return tuple(self.extra_latency.get(op, 0) for op in op_names)

    def rows(self) -> Tuple[Tuple[str, str], ...]:
        """Table 1 as printable rows."""
        return (
            ("Pipeline", f"{self.pipeline_stages}-stage, in-order, "
                         f"{self.issue_width}-issue"),
            ("Architected registers", str(self.architected_regs)),
            ("Physical registers", str(self.physical_regs)),
            ("Instruction width", f"{self.instr_bytes * 8} bits"),
            ("I-cache", f"{self.icache_size // 1024}KB, "
                        f"{self.icache_assoc}-way, {self.icache_line}B lines"),
            ("D-cache", f"{self.dcache_size // 1024}KB, "
                        f"{self.dcache_assoc}-way, {self.dcache_line}B lines"),
            ("Miss penalty", f"{self.cache_miss_penalty} cycles"),
        )


@dataclass(frozen=True)
class VLIWConfig:
    """The Section 10.2 high-performance VLIW machine."""

    name: str = "vliw-4fu"
    n_functional_units: int = 4
    n_memory_ports: int = 2
    architected_regs: int = 32
    physical_regs: int = 64
    latencies: Dict[str, int] = field(
        default_factory=lambda: {
            "alu": 1, "mul": 3, "div": 12, "mem": 2, "branch": 1,
        }
    )

    def latency(self, kind: str) -> int:
        """Latency of an operation kind (defaults to a single cycle)."""
        return self.latencies.get(kind, 1)


LOWEND = LowEndConfig()
VLIW = VLIWConfig()
