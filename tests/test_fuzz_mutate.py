"""Mutation-testing gate for the symbolic checker.

A checker is only as good as what it provably catches, so it is judged
against machine-generated corruptions of *real* allocator output.  A
mutation only counts ("armed") when the interpreter proves it is a real
miscompile — divergence, fault, or step overrun on the probe inputs —
which keeps the gate honest: the checker is never graded against its own
opinion of what matters.

The bar: at least five corruption classes, each with at least one armed
mutant, and 100% of armed mutants caught.  The catalogue covers seven
classes:

=============== ======================================================
kind            corruption
=============== ======================================================
use-swap        a use field reads a different register
def-swap        a result is written to a different register
drop-reload     a spill reload (``ldslot``) is deleted
drop-store      a spill store (``stslot``) is deleted
slot-shuffle    a reload reads the wrong spill slot
move-corrupt    a resolver-emitted register copy is dropped,
                duplicated at a later offset, or reordered with its
                neighbour (armed mutants must fall to the symbolic
                checker or the L010 interference lint)
setlr-corrupt   a ``set_last_reg`` payload is corrupted or the
                instruction is misplaced, then the binary is re-decoded
=============== ======================================================

Not every syntactic corruption is a semantic bug (swapping a dead def, or
a ``setlr`` whose damage is masked by a block-entry anchor, changes
nothing), so the gate first *arms* each mutation with checker-independent
evidence — interpreter divergence or fault against the original program —
and then requires the checker to catch 100% of the armed set.

``setlr`` corruption works at the encoding layer: the payload is mutated
in the :class:`EncodedFunction`, committed to bits with ``pack_function``
and decoded back with ``unpack_function`` — exactly what the hardware
would do — and the *decoded* function (with original uids re-attached
positionally) is what the checker and interpreter judge.
"""

import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Sequence, Tuple

import pytest

from repro.encoding.binary import PackError, pack_function, unpack_function
from repro.encoding.encoder import EncodedFunction, setlr_payload
from repro.encoding.static_verifier import verify_encoding_static
from repro.fuzz import FuzzConfig, generate_fuzz_function
from repro.fuzz.harness import strip_setlr
from repro.ir.function import Function
from repro.ir.instr import Instr, Reg
from repro.ir.interp import InterpError, Interpreter
from repro.lint import LintOptions, run_lint
from repro.parallel import derive_seed
from repro.regalloc.checker import check_allocation_semantics
from repro.regalloc.pipeline import AllocatedProgram, run_setup

from tests.conftest import make_pressure_fn

MUTATION_KINDS = ("use-swap", "def-swap", "drop-reload", "drop-store",
                  "slot-shuffle", "move-corrupt", "setlr-corrupt")

_ARGS: Tuple[Tuple[int, ...], ...] = ((0,), (2,), (5,))


@dataclass
class Mutation:
    """One corrupted variant of an allocated function."""

    kind: str
    detail: str
    fn: Function
    #: for encoding-layer corruptions: the corrupted EncodedFunction the
    #: bits were packed from, so static verifiers can judge it too
    enc: "EncodedFunction | None" = None


@dataclass
class GateResult:
    """Outcome of one mutation-testing run."""

    total: int = 0
    armed: Dict[str, int] = field(default_factory=dict)
    caught: int = 0
    missed: List[str] = field(default_factory=list)
    #: encoding-layer mutants the dynamic checker caught, judged again by
    #: the static verifier (repro.encoding.static_verifier)
    static_armed: int = 0
    static_caught: int = 0
    static_missed: List[str] = field(default_factory=list)

    @property
    def n_armed(self) -> int:
        return sum(self.armed.values())

    @property
    def detection_rate(self) -> float:
        return self.caught / self.n_armed if self.n_armed else 1.0

    @property
    def static_detection_rate(self) -> float:
        """Fraction of dynamically-caught encoding mutants the static
        verifier also flags (the gate demands 1.0)."""
        return (self.static_caught / self.static_armed
                if self.static_armed else 1.0)


def reattach_uids(decoded: Function, reference: Function) -> Function:
    """Give ``decoded`` (fresh uids from ``unpack_function``) the uids of
    the positionally corresponding instructions of ``reference``.

    Sound because pack/unpack preserve the opcode sequence per block —
    only register fields can decode differently — which is exactly the
    corruption the checker is then asked to find.
    """
    out = decoded.copy()
    for db, rb in zip(out.blocks, reference.blocks):
        if len(db.instrs) != len(rb.instrs):
            raise ValueError(
                f"block {db.name}: {len(db.instrs)} decoded instructions "
                f"vs {len(rb.instrs)} reference")
        for di, ri in zip(db.instrs, rb.instrs):
            di.uid = ri.uid
    return out


def is_miscompile(original: Function, mutant: Function,
                  args_list: Sequence[Tuple[int, ...]] = _ARGS,
                  max_steps: int = 200_000) -> bool:
    """Checker-independent evidence that ``mutant`` misbehaves: a wrong
    return value, a fault, or a runaway loop on any probe input."""
    for args in args_list:
        ref = Interpreter(max_steps=max_steps,
                          record_trace=False).run(original, args)
        try:
            got = Interpreter(max_steps=max_steps,
                              record_trace=False).run(mutant, args)
        except InterpError:
            return True
        if got.return_value != ref.return_value:
            return True
    return False


# ----------------------------------------------------------------------
# per-kind candidate enumeration
# ----------------------------------------------------------------------

def _reg_universe(fn: Function) -> List[Reg]:
    return sorted(fn.registers())


def _sites(fn: Function):
    for bi, block in enumerate(fn.blocks):
        for ii in range(len(block.instrs)):
            yield bi, ii


def _mutate_use_swap(fn: Function, rng: random.Random,
                     limit: int) -> List[Mutation]:
    regs = _reg_universe(fn)
    sites = [(bi, ii, si) for bi, ii in _sites(fn)
             for si in range(len(fn.blocks[bi].instrs[ii].srcs))
             if fn.blocks[bi].instrs[ii].op not in ("setlr", "nop")]
    out = []
    for bi, ii, si in _pick(rng, sites, limit):
        m = fn.copy()
        ins = m.blocks[bi].instrs[ii]
        old = ins.srcs[si]
        new = rng.choice([r for r in regs if r != old] or [old])
        if new == old:
            continue
        ins.srcs = ins.srcs[:si] + (new,) + ins.srcs[si + 1:]
        out.append(Mutation(
            "use-swap",
            f"{m.blocks[bi].name}#{ii}: src{si} {old} -> {new}", m))
    return out


def _mutate_def_swap(fn: Function, rng: random.Random,
                     limit: int) -> List[Mutation]:
    regs = _reg_universe(fn)
    sites = [(bi, ii) for bi, ii in _sites(fn)
             if fn.blocks[bi].instrs[ii].dst is not None]
    out = []
    for bi, ii in _pick(rng, sites, limit):
        m = fn.copy()
        ins = m.blocks[bi].instrs[ii]
        old = ins.dst
        new = rng.choice([r for r in regs if r != old] or [old])
        if new == old:
            continue
        ins.dst = new
        out.append(Mutation(
            "def-swap", f"{m.blocks[bi].name}#{ii}: dst {old} -> {new}", m))
    return out


def _mutate_drop(fn: Function, rng: random.Random, limit: int, op: str,
                 kind: str) -> List[Mutation]:
    sites = [(bi, ii) for bi, ii in _sites(fn)
             if fn.blocks[bi].instrs[ii].op == op]
    out = []
    for bi, ii in _pick(rng, sites, limit):
        m = fn.copy()
        dropped = m.blocks[bi].instrs.pop(ii)
        out.append(Mutation(
            kind, f"{m.blocks[bi].name}#{ii}: deleted {dropped.op} "
                  f"slot {dropped.imm}", m))
    return out


def _mutate_slot_shuffle(fn: Function, rng: random.Random,
                         limit: int) -> List[Mutation]:
    slots = sorted({int(i.imm) for i in fn.instructions()
                    if i.op in ("ldslot", "stslot")})
    sites = [(bi, ii) for bi, ii in _sites(fn)
             if fn.blocks[bi].instrs[ii].op == "ldslot"]
    out = []
    for bi, ii in _pick(rng, sites, limit):
        m = fn.copy()
        ins = m.blocks[bi].instrs[ii]
        old = int(ins.imm)
        others = [s for s in slots if s != old] or [old + 1]
        ins.imm = rng.choice(others)
        out.append(Mutation(
            "slot-shuffle",
            f"{m.blocks[bi].name}#{ii}: ldslot slot {old} -> {ins.imm}", m))
    return out


def _mutate_move_corrupt(fn: Function, rng: random.Random,
                         limit: int) -> List[Mutation]:
    """Corrupt one physical register copy the way a buggy parallel-move
    resolver would: drop it, duplicate it at a later offset, or reorder
    it with its successor (breaking the safe emission order)."""
    sites = [(bi, ii) for bi, ii in _sites(fn)
             if fn.blocks[bi].instrs[ii].op == "mov"
             and fn.blocks[bi].instrs[ii].dst is not None
             and not fn.blocks[bi].instrs[ii].dst.virtual
             and fn.blocks[bi].instrs[ii].srcs
             and not fn.blocks[bi].instrs[ii].srcs[0].virtual]
    out: List[Mutation] = []
    for bi, ii in _pick(rng, sites, limit):
        for variant in ("drop", "duplicate", "reorder"):
            m = fn.copy()
            block = m.blocks[bi]
            ins = block.instrs[ii]
            if variant == "drop":
                block.instrs.pop(ii)
            elif variant == "duplicate":
                # fresh uid: the copy is *new* wrong code, not a replay
                dup = Instr("mov", dst=ins.dst, srcs=ins.srcs)
                pos = min(ii + 2, max(ii + 1, len(block.instrs) - 1))
                block.instrs.insert(pos, dup)
            else:  # reorder with the next instruction
                if ii + 1 >= len(block.instrs):
                    continue
                nxt = block.instrs[ii + 1]
                if nxt.info.is_branch:
                    continue
                block.instrs[ii], block.instrs[ii + 1] = nxt, ins
            out.append(Mutation(
                "move-corrupt",
                f"{block.name}#{ii}: mov {ins.dst} <- {ins.srcs[0]} "
                f"{variant}", m))
    return out


def _mutate_setlr(enc: EncodedFunction, rng: random.Random,
                  limit: int) -> List[Mutation]:
    """Corrupt ``setlr`` payloads / placement, then re-decode the binary."""
    reference = strip_setlr(enc.fn)
    sites = [(bi, ii) for bi, b in enumerate(enc.fn.blocks)
             for ii, ins in enumerate(b.instrs) if ins.op == "setlr"]
    out: List[Mutation] = []
    for bi, ii in _pick(rng, sites, limit):
        for variant in ("value", "delay", "move"):
            m = enc.fn.copy()
            block = m.blocks[bi]
            ins = block.instrs[ii]
            value, delay, cls = setlr_payload(ins)
            if variant == "value":
                ins.imm = ((value + 1) % enc.config.reg_n, delay, cls)
            elif variant == "delay":
                ins.imm = (value, delay + 1 if delay < 15 else delay - 1,
                           cls)
            else:  # move: push the setlr one instruction later
                if ii + 1 >= len(block.instrs):
                    continue
                nxt = block.instrs[ii + 1]
                if nxt.info.is_branch or nxt.op == "setlr":
                    continue
                block.instrs[ii], block.instrs[ii + 1] = nxt, ins
            corrupted = replace(enc, fn=m)
            try:
                packed = pack_function(corrupted)
                decoded = unpack_function(packed)
                decoded_uids = reattach_uids(decoded, reference)
            except (PackError, ValueError):
                continue
            out.append(Mutation(
                "setlr-corrupt",
                f"{block.name}#{ii}: setlr {variant} corrupted",
                decoded_uids, enc=corrupted))
    return out


def _pick(rng: random.Random, sites: List, limit: int) -> List:
    if len(sites) <= limit:
        return list(sites)
    return rng.sample(sites, limit)


def enumerate_mutations(prog: AllocatedProgram, base_seed: int = 0,
                        per_kind: int = 4) -> List[Mutation]:
    """Deterministically draw up to ``per_kind`` candidate corruptions of
    every catalogue class that applies to ``prog``.

    Spill classes need spill code, ``setlr-corrupt`` needs an encoded
    (differential) setup; classes without a site simply contribute no
    candidates — the gate's corpus is chosen so every class fires
    somewhere.
    """
    fn = prog.final_fn
    muts: List[Mutation] = []
    for kind in MUTATION_KINDS:
        rng = random.Random(derive_seed(base_seed, "mutate", prog.name,
                                        prog.setup, kind))
        if kind == "use-swap":
            muts.extend(_mutate_use_swap(fn, rng, per_kind))
        elif kind == "def-swap":
            muts.extend(_mutate_def_swap(fn, rng, per_kind))
        elif kind == "drop-reload":
            muts.extend(_mutate_drop(fn, rng, per_kind, "ldslot",
                                     "drop-reload"))
        elif kind == "drop-store":
            muts.extend(_mutate_drop(fn, rng, per_kind, "stslot",
                                     "drop-store"))
        elif kind == "slot-shuffle":
            muts.extend(_mutate_slot_shuffle(fn, rng, per_kind))
        elif kind == "move-corrupt":
            muts.extend(_mutate_move_corrupt(fn, rng, per_kind))
        elif kind == "setlr-corrupt" and prog.encoded is not None:
            muts.extend(_mutate_setlr(prog.encoded, rng, per_kind))
    return muts


def run_mutation_gate(original: Function, prog: AllocatedProgram,
                      base_seed: int = 0, per_kind: int = 4,
                      args_list: Sequence[Tuple[int, ...]] = _ARGS
                      ) -> GateResult:
    """Inject the catalogue into ``prog``, arm each mutation against the
    interpreter, and demand the checker catch every armed one.

    Encoding-layer mutants (``setlr-corrupt``) the dynamic checker catches
    are additionally judged by the static verifier
    (:func:`repro.encoding.static_verifier.verify_encoding_static` on the
    corrupted pre-decode encoding); ``static_detection_rate`` must stay
    1.0 for the static proof layer to be trusted.

    ``move-corrupt`` mutants are judged by the union of the symbolic
    checker and the L010 allocation-interference lint — the two layers
    that guard the parallel-move resolver's output — and the gate demands
    100% detection on the armed set just like every other class."""
    result = GateResult()
    for mut in enumerate_mutations(prog, base_seed, per_kind):
        result.total += 1
        if not is_miscompile(original, mut.fn, args_list):
            continue
        result.armed[mut.kind] = result.armed.get(mut.kind, 0) + 1
        report = check_allocation_semantics(original, mut.fn)
        caught = not report.ok
        if not caught and mut.kind == "move-corrupt":
            lint = run_lint(
                mut.fn,
                LintOptions(allocated=True,
                            coloring=prog.allocation.coloring,
                            original=prog.allocation.colored_fn),
                only=("L010",))
            caught = bool(lint.errors)
        if not caught:
            result.missed.append(f"{mut.kind}: {mut.detail}")
        else:
            result.caught += 1
            if mut.enc is not None:
                result.static_armed += 1
                if verify_encoding_static(mut.enc).ok:
                    result.static_missed.append(
                        f"{mut.kind}: {mut.detail}")
                else:
                    result.static_caught += 1
    return result


# corpus chosen to exercise every mutation site class: spills (pressure ×
# ospill), encoding/setlr (every encoded setup), swaps and slot traffic,
# and a value rotation whose parallel-move cycle survives coalescing (the
# move-corrupt class needs physical copies in the allocated output)
_CORPUS = [
    ("pressure", "ospill"),
    ("pressure", "baseline"),
    ("fuzz11", "remapping"),
    ("fuzz11", "coalesce"),
    ("fuzz11", "select"),
    ("rotation", "baseline"),
    ("rotation", "select"),
]

_FUZZ11 = FuzzConfig(base_values=10, loop_depth=2, fresh_bias=0.5)

_ROTATION = """
func rot(v0):
entry:
    li v1, 1
    li v2, 2
    li v3, 3
    li v4, 0
    br loop
loop:
    mov v5, v1
    mov v1, v2
    mov v2, v3
    mov v3, v5
    add v6, v1, v2
    addi v4, v4, 1
    blt v4, v0, loop, exit
exit:
    add v7, v6, v3
    ret v7
"""


def _build(name):
    if name == "pressure":
        return make_pressure_fn(nvals=12, seed=3)
    if name == "rotation":
        from repro.ir import parse_function
        return parse_function(_ROTATION)
    return generate_fuzz_function(11, _FUZZ11)


@pytest.fixture(scope="module")
def gate_results():
    results = []
    for name, setup in _CORPUS:
        fn = _build(name)
        prog = run_setup(fn, setup, remap_restarts=1, remap_seed=7)
        results.append((name, setup,
                        run_mutation_gate(fn, prog, base_seed=0)))
    return results


class TestMutationGate:
    def test_every_kind_armed_somewhere(self, gate_results):
        armed = {k: 0 for k in MUTATION_KINDS}
        for _, _, gate in gate_results:
            for kind, n in gate.armed.items():
                armed[kind] += n
        assert len(MUTATION_KINDS) >= 5
        missing = [k for k, n in armed.items() if n == 0]
        assert not missing, f"kinds never armed: {missing}"

    def test_all_armed_mutants_caught(self, gate_results):
        for name, setup, gate in gate_results:
            assert gate.missed == [], (
                f"{name}/{setup}: checker missed armed mutants: "
                f"{[(m.kind, m.detail) for m in gate.missed]}")

    def test_detection_rate_is_total(self, gate_results):
        total = sum(g.n_armed for _, _, g in gate_results)
        assert total >= len(MUTATION_KINDS)  # gate actually exercised
        for _, _, gate in gate_results:
            if gate.n_armed:
                assert gate.detection_rate == 1.0

    def test_static_verifier_matches_dynamic_on_setlr_corrupt(
            self, gate_results):
        # the issue's bar: the static verifier flags 100% of the
        # setlr-corrupt mutants the dynamic checker catches
        judged = sum(g.static_armed for _, _, g in gate_results)
        assert judged > 0  # encoded setups produced armed setlr mutants
        for name, setup, gate in gate_results:
            assert gate.static_missed == [], (
                f"{name}/{setup}: static verifier missed mutants the "
                f"dynamic checker caught: {gate.static_missed}")
            assert gate.static_detection_rate == 1.0


class TestArming:
    def test_faithful_copy_is_not_a_miscompile(self):
        fn = generate_fuzz_function(2)
        assert not is_miscompile(fn, fn.copy())

    def test_enumeration_is_deterministic(self):
        fn = _build("pressure")
        prog = run_setup(fn, "ospill", remap_seed=7)
        a = enumerate_mutations(prog, base_seed=4)
        b = enumerate_mutations(prog, base_seed=4)
        assert [(m.kind, m.detail) for m in a] \
            == [(m.kind, m.detail) for m in b]

    def test_enumeration_varies_with_seed(self):
        fn = _build("pressure")
        prog = run_setup(fn, "ospill", remap_seed=7)
        a = enumerate_mutations(prog, base_seed=4)
        b = enumerate_mutations(prog, base_seed=5)
        assert [(m.kind, m.detail) for m in a] \
            != [(m.kind, m.detail) for m in b]
