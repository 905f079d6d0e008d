"""Encoding-scheme configuration.

Ties together the paper's parameters: ``RegN`` (architected registers
addressable differentially), ``DiffN`` (distinct differences encodable in a
field), the access order, reserved direct slots for special-purpose registers
(Section 9.2), register classes (Section 9.1), and the join-repair placement
policy (Section 2.2.2 offers both choices).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Mapping, Tuple

from repro.ir.instr import Reg

__all__ = ["EncodingConfig"]


@dataclass(frozen=True)
class EncodingConfig:
    """Parameters of a differential encoding scheme.

    Attributes:
        reg_n: number of registers addressable through differences (RegN).
        diff_n: number of difference values a field can hold (DiffN).
            ``diff_n == reg_n`` degenerates to direct encoding.
        direct_slots: field code -> physical register id, for special-purpose
            registers (stack pointer etc.) that are always encoded directly.
            Codes must lie in ``[diff_n, 2**field_bits)``; the target register
            ids must lie outside ``[0, reg_n)`` so the differential space and
            the direct space do not overlap.
        access_order: ``"src_first"`` (paper default) or ``"dst_first"``.
        classes: register classes that are differentially encoded, each with
            its own ``last_reg``.
        initial_last_reg: hardware reset value of ``last_reg`` (paper: n0=0).
        join_repair: ``"block_entry"`` inserts one ``set_last_reg`` at the
            head of an inconsistent join block; ``"pred_end"`` (default)
            repairs on the incoming edges where that is safe and cheaper by
            estimated frequency, falling back to ``block_entry`` — the paper
            describes both placements in Section 2.3.
    """

    reg_n: int
    diff_n: int
    direct_slots: Mapping[int, int] = field(default_factory=dict)
    access_order: str = "src_first"
    classes: Tuple[str, ...] = ("int",)
    initial_last_reg: int = 0
    join_repair: str = "pred_end"

    def __post_init__(self) -> None:
        if self.diff_n < 1 or self.reg_n < 1:
            raise ValueError("reg_n and diff_n must be positive")
        if self.diff_n > self.reg_n:
            raise ValueError(
                f"diff_n ({self.diff_n}) cannot exceed reg_n ({self.reg_n})"
            )
        if self.join_repair not in ("block_entry", "pred_end"):
            raise ValueError(f"unknown join_repair policy {self.join_repair!r}")
        if not 0 <= self.initial_last_reg < self.reg_n:
            raise ValueError("initial_last_reg out of range")
        object.__setattr__(self, "direct_slots", dict(self.direct_slots))
        # derived once: is_special/is_encodable run per register field.
        # Not a dataclass field, so equality and repr ignore it.
        object.__setattr__(self, "_special_ids",
                           frozenset(self.direct_slots.values()))
        width = self.field_bits
        for code, rid in self.direct_slots.items():
            if not self.diff_n <= code < (1 << width):
                raise ValueError(
                    f"direct slot code {code} collides with difference range "
                    f"[0, {self.diff_n}) or exceeds {width}-bit field"
                )
            if 0 <= rid < self.reg_n:
                raise ValueError(
                    f"special register r{rid} lies inside the differential "
                    f"space [0, {self.reg_n})"
                )
        if len(set(self.direct_slots.values())) != len(self.direct_slots):
            raise ValueError("two direct slots map to the same register")

    # ------------------------------------------------------------------
    # derived widths
    # ------------------------------------------------------------------

    @property
    def field_bits(self) -> int:
        """DiffW — bits per register field under this scheme."""
        needed = self.diff_n + len(self.direct_slots)
        return max(1, math.ceil(math.log2(needed)))

    @property
    def direct_field_bits(self) -> int:
        """RegW — bits per field under direct encoding of RegN registers."""
        return max(1, math.ceil(math.log2(self.reg_n + len(self.direct_slots))))

    @property
    def is_direct(self) -> bool:
        """True when the scheme degenerates to plain direct encoding."""
        return self.diff_n == self.reg_n

    # ------------------------------------------------------------------
    # special registers
    # ------------------------------------------------------------------

    def special_register_ids(self) -> frozenset:
        """Register ids addressed through reserved direct slots."""
        return self._special_ids

    def code_for_register(self, r: Reg) -> int:
        """Direct slot code for a special register; KeyError otherwise."""
        for code, rid in self.direct_slots.items():
            if rid == r.id:
                return code
        raise KeyError(r)

    def is_special(self, r: Reg) -> bool:
        """Whether ``r`` is a reserved special-purpose register."""
        return r.id in self._special_ids

    def is_encodable(self, r: Reg) -> bool:
        """Whether ``r`` participates in differential encoding."""
        return r.cls in self.classes and r.id not in self._special_ids

    @staticmethod
    def direct(reg_n: int, **kw) -> "EncodingConfig":
        """A configuration where every difference is encodable
        (``diff_n == reg_n``).

        Out-of-range repairs disappear, but decode remains *relative*: a
        control-flow join whose predecessors leave different ``last_reg``
        values still needs a join repair on cyclic control flow.  Truly
        absolute register fields are the experiment baselines, which skip
        differential encoding entirely.
        """
        return EncodingConfig(reg_n=reg_n, diff_n=reg_n, **kw)
