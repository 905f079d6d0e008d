"""End-to-end setups of the low-end evaluation (paper Section 10.1).

The five paper configurations, matching Section 10.1 exactly:

=========== ============================================== ================
setup       allocator                                      encoding
=========== ============================================== ================
baseline    iterated register coalescing, k = 8            direct, 3-bit
remapping   iterated k = 12, then differential remapping   RegN=12, DiffN=8
select      iterated k = 12 with differential select       RegN=12, DiffN=8
ospill      optimal spilling, k = 8                        direct, 3-bit
coalesce    differential coalesce on optimal spilling,     RegN=12, DiffN=8
            k = 12
=========== ============================================== ================

The differential setups allocate with more registers than the 3-bit field
directly encodes — that is the whole point — and pay ``set_last_reg``
instructions for it.

Dispatch goes through the allocator zoo (:mod:`repro.regalloc.zoo`):
this module registers the paper setups — plus the SSA spill-everywhere
backend (``ssa_spill``, :mod:`repro.regalloc.ssa_spill`) — as backends,
and :func:`run_setup` looks the requested one up in the registry.
``SETUPS`` is derived from the registry, so new backends become visible
to the CLI, the fuzz harness and the compile service by registering;
``PAPER_SETUPS`` stays pinned to the Section 10.1 five for the figure
reproductions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

from repro.diagnostics import LintError
from repro.encoding.config import EncodingConfig
from repro.encoding.encoder import EncodedFunction, encode_function
from repro.encoding.verifier import verify_encoding
from repro.ir.function import Function
from repro.regalloc.base import AllocationResult
from repro.regalloc.checker import check_allocation_semantics
from repro.regalloc.diff_coalesce import differential_coalesce_allocate
from repro.regalloc.diff_select import DifferentialSelector
from repro.regalloc.iterated import iterated_allocate
from repro.regalloc.moves import resolve_move_runs
from repro.regalloc.optimal_spill import optimal_spill_allocate
from repro.regalloc.remap import differential_remap
from repro.regalloc.ssa_spill import ssa_spill_allocate
from repro.regalloc.zoo import (AllocatorContext, AllocatorInfo,
                                allocator_names, get_allocator,
                                register_allocator)

if TYPE_CHECKING:  # the verifier is duck-typed at runtime: regalloc never
    from repro.lint import PassVerifier  # imports lint at module level

__all__ = ["AllocatedProgram", "run_setup", "SETUPS", "PAPER_SETUPS"]

#: the Section 10.1 configurations — the experiment grids that reproduce
#: the paper's figures iterate exactly these
PAPER_SETUPS = ("baseline", "remapping", "select", "ospill", "coalesce")


@dataclass
class AllocatedProgram:
    """One function taken through one experimental setup."""

    name: str
    setup: str
    allocation: AllocationResult
    final_fn: Function
    encoded: Optional[EncodedFunction] = None

    @property
    def n_instructions(self) -> int:
        return self.final_fn.num_instructions()

    @property
    def n_spills(self) -> int:
        return sum(
            1 for i in self.final_fn.instructions()
            if i.op in ("ldslot", "stslot")
        )

    @property
    def spill_fraction(self) -> float:
        """Spill instructions over all instructions (Figure 11)."""
        n = self.n_instructions
        return self.n_spills / n if n else 0.0

    @property
    def n_setlr(self) -> int:
        return self.encoded.n_setlr if self.encoded else 0

    @property
    def n_setlr_removed(self) -> int:
        """Repairs deleted by the ``setlr_elim`` post-pass."""
        return self.encoded.n_setlr_removed if self.encoded else 0

    @property
    def setlr_fraction(self) -> float:
        """set_last_reg instructions over all instructions (Figure 12)."""
        n = self.n_instructions
        return self.n_setlr / n if n else 0.0

    def metrics(self) -> Dict[str, float]:
        """The Figure 11-13 quantities as one flat dict."""
        return {
            "instructions": float(self.n_instructions),
            "spills": float(self.n_spills),
            "spill_fraction": self.spill_fraction,
            "setlr": float(self.n_setlr),
            "setlr_fraction": self.setlr_fraction,
        }


def _weighted_setlr(encoded: EncodedFunction, freq=None) -> float:
    """Frequency-weighted ``set_last_reg`` cost of an encoded function —
    the dynamic-cost estimate both remapping and select optimise."""
    from repro.analysis.frequency import estimate_block_frequencies

    if freq is None:
        freq = estimate_block_frequencies(encoded.fn)
    total = 0.0
    for block in encoded.fn.blocks:
        w = freq.get(block.name, 1.0)
        total += w * sum(1 for i in block.instrs if i.op == "setlr")
    return total


def _encode_best(candidates, config: EncodingConfig, freq=None) -> EncodedFunction:
    """Encode every candidate function and keep the cheapest.

    The adjacency-graph cost that remapping minimises is a proxy — the
    encoder's join repairs make the true ``set_last_reg`` placement differ —
    so a remap that looks better on the proxy can regress the real count.
    Selecting on actual encodings makes post-remapping monotone.
    """
    best = None
    best_cost = None
    for fn in candidates:
        enc = encode_function(fn, config, freq=freq)
        cost = (_weighted_setlr(enc, freq), enc.n_setlr)
        if best_cost is None or cost < best_cost:
            best, best_cost = enc, cost
    assert best is not None
    return best


# ----------------------------------------------------------------------
# built-in backends
# ----------------------------------------------------------------------
# Each runner performs exactly the allocation stage of its setup —
# including the stage checkpoints the pass verifier keys on — and
# returns the AllocationResult.  The differential encode path (remap
# candidates + best-encoding selection) is shared by run_setup for
# every backend whose info says differential=True.

def _run_baseline(fn: Function, ctx: AllocatorContext) -> AllocationResult:
    alloc = iterated_allocate(fn, ctx.base_k, freq=ctx.freq)
    ctx.checkpoint("alloc:iterated", alloc.fn, allocated=True, k=ctx.base_k,
                   coloring=alloc.coloring, original=alloc.colored_fn)
    return alloc


def _run_remapping(fn: Function, ctx: AllocatorContext) -> AllocationResult:
    alloc = iterated_allocate(fn, ctx.reg_n, freq=ctx.freq)
    ctx.checkpoint("alloc:iterated", alloc.fn, allocated=True, k=ctx.reg_n,
                   coloring=alloc.coloring, original=alloc.colored_fn)
    return alloc


def _run_select(fn: Function, ctx: AllocatorContext) -> AllocationResult:
    selector = DifferentialSelector(ctx.reg_n, ctx.diff_n,
                                    order=ctx.access_order)
    alloc = iterated_allocate(fn, ctx.reg_n, selector=selector, freq=ctx.freq)
    ctx.checkpoint("alloc:diff_select", alloc.fn, allocated=True, k=ctx.reg_n,
                   coloring=alloc.coloring, original=alloc.colored_fn)
    move_stats = resolve_move_runs(alloc.fn, ctx.reg_n)
    alloc.stats.update(move_stats.as_stats())
    return alloc


def _run_ospill(fn: Function, ctx: AllocatorContext) -> AllocationResult:
    alloc = optimal_spill_allocate(fn, ctx.base_k, use_ilp=ctx.use_ilp,
                                   freq=ctx.freq)
    ctx.checkpoint("alloc:ospill", alloc.fn, allocated=True, k=ctx.base_k,
                   coloring=alloc.coloring, original=alloc.colored_fn)
    return alloc


def _run_coalesce(fn: Function, ctx: AllocatorContext) -> AllocationResult:
    alloc = differential_coalesce_allocate(
        fn, ctx.reg_n, ctx.diff_n, order=ctx.access_order,
        use_ilp=ctx.use_ilp, freq=ctx.freq,
    )
    ctx.checkpoint("alloc:diff_coalesce", alloc.fn, allocated=True,
                   k=ctx.reg_n, coloring=alloc.coloring,
                   original=alloc.colored_fn)
    return alloc


def _run_ssa_spill(fn: Function, ctx: AllocatorContext) -> AllocationResult:
    alloc = ssa_spill_allocate(fn, ctx.reg_n, freq=ctx.freq)
    ctx.checkpoint("alloc:ssa_spill", alloc.fn, allocated=True, k=ctx.reg_n,
                   coloring=alloc.coloring, original=alloc.colored_fn)
    # phi lowering leaves copy runs the resolver can shorten, same as
    # the select setup
    move_stats = resolve_move_runs(alloc.fn, ctx.reg_n)
    alloc.stats.update(move_stats.as_stats())
    return alloc


register_allocator(AllocatorInfo(
    name="baseline",
    description="iterated register coalescing at the directly encodable "
                "budget (k = base_k)",
    spill_style="iterated",
    differential=False,
    source="George & Appel, iterated register coalescing",
), _run_baseline)
register_allocator(AllocatorInfo(
    name="remapping",
    description="iterated coalescing over the full file, then "
                "differential remapping (paper approach 1)",
    spill_style="iterated",
    differential=True,
    source="Zhuang & Pande, Section 5",
), _run_remapping)
register_allocator(AllocatorInfo(
    name="select",
    description="iterated coalescing with the differential-aware color "
                "selector (paper approach 2)",
    spill_style="iterated",
    differential=True,
    source="Zhuang & Pande, Section 6",
), _run_select)
register_allocator(AllocatorInfo(
    name="ospill",
    description="optimal (ILP) spilling at the directly encodable budget",
    spill_style="optimal-ilp",
    differential=False,
    source="Appel & George, optimal spilling",
), _run_ospill)
register_allocator(AllocatorInfo(
    name="coalesce",
    description="differential coalescing on optimally spilled code "
                "(paper approach 3)",
    spill_style="optimal-ilp",
    differential=True,
    source="Zhuang & Pande, Section 7",
), _run_coalesce)
register_allocator(AllocatorInfo(
    name="ssa_spill",
    description="SSA spill-everywhere: Belady furthest-use spilling on "
                "SSA live ranges, then greedy coloring",
    spill_style="everywhere",
    differential=True,
    needs_ssa=True,
    source="Bouchez, Darte & Rastello, spill everywhere under SSA",
), _run_ssa_spill)

#: every registered backend, registration order: the paper five first,
#: then the zoo additions
SETUPS = allocator_names()


def run_setup(fn: Function, setup: str,
              base_k: int = 8, reg_n: int = 12, diff_n: int = 8,
              remap_restarts: int = 100,
              use_ilp: bool = True,
              verify: bool = True,
              access_order: str = "src_first",
              freq: Optional[Dict[str, float]] = None,
              pass_verifier: Optional["PassVerifier"] = None,
              remap_seed: int = 0,
              setlr_elim: bool = True,
              ) -> AllocatedProgram:
    """Run one function through one registered allocation setup.

    ``setup`` names any backend in the allocator zoo (``SETUPS`` lists
    them; the Section 10.1 five are ``PAPER_SETUPS``).  Differential
    backends are post-processed identically — remap-candidate encoding,
    ``setlr`` elimination, decode verification — whatever allocator
    produced the coloring.

    ``base_k`` is the directly encodable register count (the THUMB-like 8);
    ``reg_n``/``diff_n`` parameterise the differential setups.  With
    ``verify`` set (every caller leaves it on) the result is proven before
    it is returned: differential encodings are decode-replayed over every
    CFG path, and the symbolic checker (:mod:`repro.regalloc.checker`)
    proves ``final_fn`` computes what ``fn`` does — for ``needs_ssa``
    backends, what their spill-extended ``colored_fn`` does, since phi
    destruction changes the block layout.  A failed proof raises
    :class:`~repro.diagnostics.LintError` with the C-series report.
    ``freq`` supplies block
    frequencies (e.g. from :func:`repro.analysis.profile.
    profile_block_frequencies`); the default is the static loop-nest
    estimate the paper uses.

    ``pass_verifier`` — a :class:`repro.lint.PassVerifier` — runs the
    static IR checker after every stage (input, allocation, encoding) with
    stage-appropriate expectations, attributing the first invariant
    violation to the pass that introduced it (``--verify-each-pass``).

    ``remap_seed`` seeds the remapping search's random restarts.

    ``setlr_elim`` (default on) runs :func:`repro.encoding.setlr_elim.
    eliminate_redundant_setlr` on the chosen encoding: ``set_last_reg``
    repairs the static verifier proves redundant or dead are deleted
    before verification.
    """
    from repro.analysis.batched import prewarm_corpus

    # the liveness and first-round interference memos every allocator
    # below starts from; the name is looked up at call time so a wrapper
    # installed on repro.analysis.batched sees this call
    prewarm_corpus([fn])

    config = EncodingConfig(reg_n=reg_n, diff_n=diff_n, access_order=access_order)
    encoded: Optional[EncodedFunction] = None

    def checkpoint(stage: str, f: Function, **expectations) -> None:
        if pass_verifier is None:
            return
        from repro.lint import LintOptions  # lazy: keeps layering acyclic

        pass_verifier.check(
            f, f"{setup}:{stage}",
            LintOptions(access_order=access_order, **expectations),
        )

    checkpoint("input", fn)

    def remap_candidates(allocated_fn: Function) -> list:
        """The function itself plus remappings under both adjacency
        weightings: frequency-weighted (targets the hot path, Figure 14)
        and unweighted (targets the static count, Figure 12)."""
        freq_remap = differential_remap(
            allocated_fn, reg_n, diff_n, order=access_order,
            restarts=remap_restarts, freq=freq,
            seed=remap_seed,
        )
        static_remap = differential_remap(
            allocated_fn, reg_n, diff_n, order=access_order,
            restarts=remap_restarts, freq={},
            seed=remap_seed,
        )
        return [allocated_fn, freq_remap.fn, static_remap.fn]

    try:
        entry = get_allocator(setup)
    except KeyError:
        raise ValueError(
            f"unknown setup {setup!r}; expected one of {SETUPS}") from None

    ctx = AllocatorContext(
        base_k=base_k, reg_n=reg_n, diff_n=diff_n, freq=freq,
        use_ilp=use_ilp, access_order=access_order,
        checkpoint=checkpoint,
    )
    alloc = entry.runner(fn, ctx)
    if entry.info.differential:
        # "differential remapping can always be invoked after approach 2 or
        # 3" (Section 3); kept only when the real encoding improves
        encoded = _encode_best(remap_candidates(alloc.fn), config, freq)
        final = encoded.fn
        checkpoint("encode:remap", final, allocated=True, encoding=config)
    else:
        final = alloc.fn

    if encoded is not None and setlr_elim:
        from repro.encoding.setlr_elim import eliminate_redundant_setlr

        if eliminate_redundant_setlr(encoded).n_removed:
            checkpoint("encode:setlr_elim", final,
                       allocated=True, encoding=config)
    if verify:
        if encoded is not None:
            verify_encoding(encoded)
        original = alloc.colored_fn if entry.info.needs_ssa else fn
        proof = check_allocation_semantics(original, final)
        if not proof.ok:
            raise LintError(
                f"{fn.name}: {setup} allocation fails the semantics proof",
                proof)
    return AllocatedProgram(
        name=fn.name, setup=setup, allocation=alloc,
        final_fn=final, encoded=encoded,
    )
