"""Differential encoding of software-pipelined kernels (Section 8.1).

For loops that need more than the directly encodable registers, the paper
applies *differential remapping only* — the kernel's register numbering is
permuted to minimise out-of-range differences, and all ``set_last_reg``
repairs are **promoted in front of the modulo-scheduled code** using delay
numbers, so they never perturb the schedule: their cost is code size, not
loop cycles.

This module builds the kernel's register access sequence from the schedule
(ops in issue order; each op reads its data-dependence sources and writes
its own value register), constructs the adjacency graph, runs the
Section 5 remapping search, and reports where the residual out-of-range
differences sit — each one is a promoted ``set_last_reg``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.swp.rotalloc import KernelAllocation

__all__ = ["SwpEncodingReport", "kernel_access_sequence", "encode_kernel"]


@dataclass
class SwpEncodingReport:
    """Differential-encoding outcome for one kernel."""

    reg_n: int
    diff_n: int
    n_fields: int
    n_out_of_range_before: int
    n_out_of_range_after: int
    permutation: Tuple[int, ...]
    # positions in the cyclic kernel access sequence whose field is
    # repaired: the promoted set_last_reg(n, delay) sets last_reg to the
    # field's register, so the field encodes difference 0
    setlr_positions: Tuple[int, ...]

    @property
    def n_setlr(self) -> int:
        """Promoted ``set_last_reg`` instructions (static, outside the loop)."""
        return len(self.setlr_positions)

    @property
    def enable_overhead(self) -> int:
        """Instructions to turn differential decoding on and off around the
        loop (Section 8.2)."""
        return 2


def kernel_access_sequence(alloc: KernelAllocation) -> List[int]:
    """The kernel's register access sequence, in schedule order.

    Each op's fields are its data sources (registers of producing ops)
    followed by its own destination register — the paper's default access
    order.  Ops without a value (stores, branches) contribute sources only.
    """
    sched = alloc.schedule
    ddg = sched.ddg
    producers_of: Dict[int, List[int]] = {op.id: [] for op in ddg.ops}
    for d in ddg.deps:
        if d.is_data:
            producers_of[d.dst].append(d.src)
    seq: List[int] = []
    for op in sorted(ddg.ops, key=lambda o: (sched.times[o.id], o.id)):
        for src in sorted(producers_of[op.id]):
            r = alloc.assignment.get(src)
            if r is not None:
                seq.append(r)
        dst = alloc.assignment.get(op.id)
        if dst is not None:
            seq.append(dst)
    return seq


def _out_of_range_positions(seq: Sequence[int], perm: Sequence[int],
                            reg_n: int, diff_n: int) -> Tuple[int, ...]:
    """The positions :func:`_count_out_of_range` counts."""
    if not seq:
        return ()
    out = []
    last = perm[seq[-1]]
    for i, r in enumerate(seq):
        n = perm[r]
        if (n - last) % reg_n >= diff_n:
            out.append(i)
        last = n
    return tuple(out)


def _count_out_of_range(seq: Sequence[int], perm: Sequence[int],
                        reg_n: int, diff_n: int) -> int:
    """Out-of-range differences over the *cyclic* kernel sequence.

    The kernel repeats every iteration, so the decode state entering the
    body is the state leaving the previous iteration — the initial
    ``last_reg`` is the last access of the sequence, which also accounts for
    the wrap-around edge.
    """
    if not seq:
        return 0
    count = 0
    last = perm[seq[-1]]
    for r in seq:
        n = perm[r]
        if (n - last) % reg_n >= diff_n:
            count += 1
        last = n
    return count


def encode_kernel(alloc: KernelAllocation, diff_n: int,
                  restarts: int = 32, seed: int = 0) -> SwpEncodingReport:
    """Differentially remap a kernel's registers (Section 8.1).

    Greedy pairwise-swap descent with random restarts over the register
    permutation, minimising the number of out-of-range differences in the
    kernel's access sequence.  The positions left out of range after the
    search are the promoted ``set_last_reg`` repairs.
    """
    reg_n = alloc.reg_n
    if diff_n > reg_n:
        raise ValueError("diff_n cannot exceed reg_n")
    seq = kernel_access_sequence(alloc)
    identity = list(range(reg_n))
    before = _count_out_of_range(seq, identity, reg_n, diff_n)
    if diff_n == reg_n or before == 0:
        return SwpEncodingReport(reg_n, diff_n, len(seq), 0, 0,
                                 tuple(identity), ())

    used = sorted({r for r in seq})
    rng = random.Random(seed)

    def descend(perm: List[int]) -> int:
        cost = _count_out_of_range(seq, perm, reg_n, diff_n)
        while True:
            best_delta, best_swap = 0, None
            for ai in range(len(used)):
                for bi in range(ai + 1, len(used)):
                    a, b = used[ai], used[bi]
                    perm[a], perm[b] = perm[b], perm[a]
                    c = _count_out_of_range(seq, perm, reg_n, diff_n)
                    perm[a], perm[b] = perm[b], perm[a]
                    if cost - c > best_delta:
                        best_delta, best_swap = cost - c, (a, b)
            if best_swap is None:
                return cost
            a, b = best_swap
            perm[a], perm[b] = perm[b], perm[a]
            cost -= best_delta

    best_perm = list(identity)
    best_cost = descend(best_perm)
    for _ in range(max(0, restarts - 1)):
        if best_cost == 0:
            break
        perm = list(identity)
        images = [perm[u] for u in used]
        rng.shuffle(images)
        for u, img in zip(used, images):
            perm[u] = img
        cost = descend(perm)
        if cost < best_cost:
            best_perm, best_cost = perm, cost
    return SwpEncodingReport(
        reg_n=reg_n, diff_n=diff_n, n_fields=len(seq),
        n_out_of_range_before=before, n_out_of_range_after=best_cost,
        permutation=tuple(best_perm),
        setlr_positions=_out_of_range_positions(seq, best_perm, reg_n, diff_n),
    )
