"""Analytical model of the differential decoder hardware (paper §2.1).

The paper argues the implementation overhead is negligible and backs it
with rough circuit estimates: a 4-bit modulo adder is two-level
combinational logic with a two-gate delay (<0.4ns, a fifth of a 500MHz
cycle); decoding three operands in parallel for a 16-register machine
needs a 12-bit-input/4-bit-output circuit of under 2k transistors; and
only one extra architectural register (``last_reg``) is required, plus one
per register class and per speculative path.

We cannot run HSPICE, so this module reproduces the *estimates* with a
standard static model: modulo-N addition decomposed into an adder chain
plus conditional correction, gate counts from full-adder equivalents,
4 transistors per NAND-equivalent gate, and logic depth as a delay proxy.
The tests pin the model to the paper's claimed envelope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from repro.encoding.config import EncodingConfig

__all__ = ["DecoderCostModel", "DecoderEstimate"]

_GATES_PER_FULL_ADDER = 5          # classic 2xXOR + 2xAND + OR
_TRANSISTORS_PER_GATE = 4          # NAND-equivalent CMOS
_GATE_DELAY_NS = 0.2               # the paper's 2-gate / 0.4ns calibration


@dataclass(frozen=True)
class DecoderEstimate:
    """Cost estimate for one parallel-decode configuration."""

    operands: int
    input_bits: int
    output_bits: int
    gate_count: int
    transistor_count: int
    logic_levels: int

    @property
    def delay_ns(self) -> float:
        return self.logic_levels * _GATE_DELAY_NS

    def cycle_fraction(self, clock_mhz: float = 500.0) -> float:
        """Fraction of a clock cycle the decode chain occupies."""
        cycle_ns = 1000.0 / clock_mhz
        return self.delay_ns / cycle_ns


class DecoderCostModel:
    """Estimate the decode-stage hardware for an encoding configuration.

    ``n_i = (last_reg + d_1 + ... + d_i) mod RegN`` — operand *i*'s decoder
    sums ``i`` differences with ``last_reg`` and reduces modulo ``RegN``.
    The paper's parallel formulation builds one such circuit per operand.
    """

    def __init__(self, config: EncodingConfig) -> None:
        self.config = config

    @property
    def reg_bits(self) -> int:
        """Width of ``last_reg`` and of each modulo-adder lane."""
        return max(1, math.ceil(math.log2(self.config.reg_n)))

    def last_reg_registers(self, classes: int = None,
                           speculative_paths: int = 1) -> int:
        """Extra architectural state: one ``last_reg`` per register class
        (§9.1) and per speculatively fetched path (§2.1)."""
        n_classes = classes if classes is not None else len(self.config.classes)
        return n_classes * max(1, speculative_paths)

    def _modulo_adder(self, n_inputs: int) -> Tuple[int, int]:
        """(gate count, logic levels) of an n-input modulo-RegN adder.

        Carry-save tree over the inputs, one carry-propagate stage, and a
        conditional subtract-RegN correction (for non-power-of-two RegN).
        Power-of-two RegN reduces for free (drop the carry out).
        """
        bits = self.reg_bits
        csa_stages = max(0, n_inputs - 2)
        gates = csa_stages * bits * _GATES_PER_FULL_ADDER
        gates += bits * _GATES_PER_FULL_ADDER          # final CPA
        levels = 2 * max(1, csa_stages) + 2 * bits // 2
        if self.config.reg_n & (self.config.reg_n - 1):
            gates += bits * _GATES_PER_FULL_ADDER      # -RegN correction
            gates += bits                              # select mux
            levels += 2
        # small operand counts collapse into two-level logic: a 4-bit
        # two-operand modulo adder is the paper's "two-gate delay" case
        if n_inputs <= 2 and bits <= 4:
            levels = 2
        return gates, levels

    def permi_estimate(self) -> DecoderEstimate:
        """Decode + execute cost of the shuffle-code ``permi`` extension.

        ``permi`` carries RegN direct register numbers (``reg_bits`` each),
        so its *decode* needs no modulo adders at all — the cost sits in
        the register file: an all-to-all crossbar of RegN lanes, each lane
        a RegN-to-1 mux of ``reg_bits``-wide values (a tree of 2-to-1
        muxes, ~3 gates each, ``ceil(log2 RegN)`` levels).  This is the
        estimate the ``has_permi`` machine flag buys, to be read next to
        the differential decoder's own envelope (:meth:`estimate`).
        """
        n = self.config.reg_n
        bits = self.reg_bits
        mux2_per_lane = max(1, n - 1)                  # n-to-1 mux tree
        gates_per_lane = mux2_per_lane * bits * 3      # 2:1 mux ~ 3 gates
        total_gates = n * gates_per_lane
        levels = max(1, math.ceil(math.log2(max(2, n))))
        return DecoderEstimate(
            operands=n,
            input_bits=n * bits,
            output_bits=n * bits,
            gate_count=total_gates,
            transistor_count=total_gates * _TRANSISTORS_PER_GATE,
            logic_levels=levels,
        )

    def estimate(self, operands: int = 3) -> DecoderEstimate:
        """Cost of decoding ``operands`` register fields in parallel."""
        if operands < 1:
            raise ValueError("at least one operand")
        total_gates = 0
        worst_levels = 0
        for i in range(1, operands + 1):
            gates, levels = self._modulo_adder(i + 1)  # last_reg + i diffs
            total_gates += gates
            worst_levels = max(worst_levels, levels)
        input_bits = self.reg_bits + operands * self.config.field_bits
        return DecoderEstimate(
            operands=operands,
            input_bits=input_bits,
            output_bits=self.reg_bits,
            gate_count=total_gates,
            transistor_count=total_gates * _TRANSISTORS_PER_GATE,
            logic_levels=worst_levels,
        )
