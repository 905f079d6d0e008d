"""Targeted fuzzing of the parallel-move resolver (regalloc2's ``moves``).

regalloc2 fuzzes its parallel-move lowering with a dedicated target that
feeds random partial permutations through the resolver and checks the
emitted sequence against a simulation oracle; this module is the same idea
for :mod:`repro.regalloc.moves`.  One *case* is a seed-derived
:class:`MovesCase` — a random partial register permutation (optionally a
fan-out) and a liveness environment that may or may not provide a
scratch register — judged by five oracles:

* **abstract-apply** — replaying the emitted ops over a symbolic register
  file yields exactly the target mapping, everything else untouched;
* **closed-form** — for injective mappings the emitted length equals
  :func:`repro.regalloc.moves.minimal_instruction_count`'s cycle-structure
  closed form;
* **exhaustive-minimality** — for small files (``RegN <= 5``) the length
  equals the true optimum found by Dijkstra over register-file states;
* **lowered-interp** — the lowering (``mov`` instructions and xor-swap
  triples) runs through both interpreter engines and produces the mapped
  register file;
* **strict-lint** — the strict lint accepts the lowered function.

Failing cases shrink greedily — drop mapping pairs, then the scratch —
while the failure persists, and the report ends with a ``repro fuzz moves
--replay SEED`` line that replays the original case.
Seeds derive via :func:`repro.parallel.derive_seed`, so campaigns are
bit-identical for any ``--jobs`` value.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.parallel import derive_seed, parallel_map
from repro.regalloc.moves import (apply_ops, lower_ops,
                                  minimal_instruction_count,
                                  resolve_parallel_move, search_minimal_cost)

__all__ = [
    "MovesCase",
    "MovesFuzzReport",
    "generate_moves_case",
    "run_moves_case",
    "run_moves_fuzz",
    "shrink_moves_case",
    "moves_repro_command",
    "format_moves_failure",
]

#: exhaustive minimality is checked up to this register-file size; the
#: Dijkstra state space is RegN! * RegN and 5 is instant, 8 is minutes
_SEARCH_REG_N = 5


@dataclass(frozen=True)
class MovesCase:
    """One resolver input: mapping and liveness environment."""

    reg_n: int
    mapping: Tuple[Tuple[int, int], ...]   # sorted (dst, src) pairs
    scratch: Optional[int] = None

    def mapping_dict(self) -> Dict[int, int]:
        """The mapping as the ``{dst: src}`` dict the resolver takes."""
        return dict(self.mapping)

    def describe(self) -> str:
        """Compact one-line rendering for reports."""
        pairs = ", ".join(f"r{d}<-r{s}" for d, s in self.mapping)
        return f"reg_n={self.reg_n} {{{pairs}}} scratch={self.scratch}"


def generate_moves_case(seed: int) -> MovesCase:
    """Derive one case from a seed: a random partial permutation over
    ``RegN in [2, 16]`` (sometimes widened to a fan-out), plus a liveness
    environment that offers a scratch register about half the time."""
    rng = random.Random(seed)
    reg_n = rng.randrange(2, 17)
    size = rng.randrange(1, reg_n + 1)
    dsts = sorted(rng.sample(range(reg_n), size))
    if rng.random() < 0.75:
        srcs = rng.sample(range(reg_n), size)        # partial permutation
    else:
        srcs = [rng.randrange(reg_n) for _ in dsts]  # fan-out allowed
    mapping = tuple(sorted((d, s) for d, s in zip(dsts, srcs) if d != s))
    involved = {r for pair in mapping for r in pair}
    free = [r for r in range(reg_n) if r not in involved]
    scratch = rng.choice(free) if free and rng.random() < 0.5 else None
    return MovesCase(reg_n=reg_n, mapping=mapping, scratch=scratch)


def _fail(failures: List[Dict[str, str]], oracle: str, message: str) -> None:
    failures.append({"oracle": oracle, "setup": "moves", "message": message})


def _lowered_function(case: MovesCase, ops) -> "object":
    """Build a runnable function: seed every register with a distinct
    constant, run the lowered sequence, return r0."""
    from repro.ir.parser import parse_function
    from repro.ir.printer import format_instr

    lines = [f"    li r{i}, {101 + i}" for i in range(case.reg_n)]
    lines += [f"    {format_instr(ins)}" for ins in lower_ops(ops)]
    lines.append("    ret r0")
    return parse_function("func moves_case():\nentry:\n" + "\n".join(lines))


def run_moves_case(seed: int) -> Dict[str, object]:
    """One case through every oracle; pure in ``seed`` and picklable."""
    case = generate_moves_case(seed)
    return run_explicit_case(seed, case)


def run_explicit_case(seed: int, case: MovesCase) -> Dict[str, object]:
    """Judge an explicit :class:`MovesCase` (shrinking re-enters here)."""
    from repro.diagnostics import Severity
    from repro.ir.interp import InterpError, Interpreter
    from repro.lint import LintOptions, run_lint

    failures: List[Dict[str, str]] = []
    outcome: Dict[str, object] = {
        "seed": seed, "case": case, "failures": failures,
    }
    mapping = case.mapping_dict()
    try:
        resolved = resolve_parallel_move(mapping, scratch=case.scratch)
    except Exception as exc:
        _fail(failures, "resolver-crash", f"{type(exc).__name__}: {exc}")
        return outcome

    # oracle: abstract semantic equality over a symbolic register file
    state = apply_ops(resolved.ops, {i: ("v", i) for i in range(case.reg_n)})
    for i in range(case.reg_n):
        if i == case.scratch:
            continue
        want = ("v", mapping.get(i, i))
        if state[i] != want:
            _fail(failures, "abstract-apply",
                  f"r{i} ends as {state[i]}, want {want} "
                  f"(ops {resolved.ops})")

    srcs = list(mapping.values())
    injective = len(set(srcs)) == len(srcs)
    if injective:
        want_len = minimal_instruction_count(
            mapping, scratch_available=case.scratch is not None)
        if resolved.n_instructions != want_len:
            _fail(failures, "closed-form",
                  f"emitted {resolved.n_instructions} instructions, "
                  f"closed form says {want_len} (ops {resolved.ops})")

    if case.reg_n <= _SEARCH_REG_N:
        opt = search_minimal_cost(mapping, case.reg_n, scratch=case.scratch)
        bad = (resolved.n_instructions != opt if injective
               else resolved.n_instructions < opt)
        if bad:
            _fail(failures, "exhaustive-minimality",
                  f"emitted {resolved.n_instructions} instructions, "
                  f"optimum is {opt} (ops {resolved.ops})")

    # oracle: the lowering runs, both engines agree, and the final
    # register file is the mapped one
    fn = _lowered_function(case, resolved.ops)
    try:
        fast = Interpreter(record_trace=False).run(fn, ())
        ref = Interpreter(record_trace=False, engine="reference").run(fn, ())
    except InterpError as exc:
        _fail(failures, "lowered-interp", f"fault: {exc}")
        return outcome
    if (fast.return_value, fast.steps) != (ref.return_value, ref.steps):
        _fail(failures, "lowered-interp",
              f"engines disagree: fast ({fast.return_value}, {fast.steps}) "
              f"vs reference ({ref.return_value}, {ref.steps})")
    from repro.ir.instr import Reg
    for i in range(case.reg_n):
        if i == case.scratch:
            continue
        want = 101 + mapping.get(i, i)
        got = fast.regs.get(Reg(i, virtual=False))
        if got != want:
            _fail(failures, "lowered-interp",
                  f"r{i} ends as {got}, want {want} (ops {resolved.ops})")

    lint = run_lint(fn, LintOptions(allocated=True))
    if lint.at_least(Severity.WARNING):
        _fail(failures, "strict-lint", lint.render_text())
    return outcome


@dataclass
class MovesFuzzReport:
    """Outcome of a whole ``moves`` campaign."""

    base_seed: int
    cases: List[Dict[str, object]] = field(default_factory=list)

    @property
    def failures(self) -> List[Dict[str, object]]:
        """The outcomes whose oracle list is non-empty."""
        return [c for c in self.cases if c["failures"]]

    @property
    def ok(self) -> bool:
        """True when every case passed every oracle."""
        return not self.failures

    def summary(self) -> str:
        """One-line human summary, also the CLI's success output."""
        return (f"{len(self.cases)} moves case(s), "
                f"{len(self.failures)} with discrepancies")


def moves_case_seed(base_seed: int, index: int) -> int:
    """The derived seed of campaign case ``index``."""
    return derive_seed(base_seed, "fuzz-moves", index)


def run_moves_fuzz(base_seed: int, n_cases: int,
                   jobs: int = 1) -> MovesFuzzReport:
    """Run ``n_cases`` derived cases; bit-identical for any ``jobs``."""
    seeds = [moves_case_seed(base_seed, i) for i in range(n_cases)]
    return MovesFuzzReport(base_seed=base_seed,
                           cases=parallel_map(run_moves_case, seeds, jobs))


def shrink_moves_case(seed: int, case: MovesCase) -> MovesCase:
    """Greedily minimise a failing case while it keeps failing.

    Drops mapping pairs one at a time, then the scratch register; repeats
    until a full pass makes no progress.  The result is re-judged at every
    step, so it is a genuine reproducer.
    """
    def failing(candidate: MovesCase) -> bool:
        return bool(run_explicit_case(seed, candidate)["failures"])

    current = case
    progressed = True
    while progressed:
        progressed = False
        for pair in list(current.mapping):
            smaller = replace(current, mapping=tuple(
                p for p in current.mapping if p != pair))
            if smaller.mapping and failing(smaller):
                current = smaller
                progressed = True
        if current.scratch is not None:
            dropped = replace(current, scratch=None)
            if failing(dropped):
                current = dropped
                progressed = True
    return current


def moves_repro_command(seed: int) -> str:
    """The exact CLI invocation that replays one case."""
    return f"python -m repro fuzz moves --replay {seed}"


def format_moves_failure(outcome: Dict[str, object],
                         shrunk: Optional[MovesCase] = None) -> str:
    """A self-contained failure report ending in a replay command."""
    seed = int(outcome["seed"])  # type: ignore[arg-type]
    case: MovesCase = outcome["case"]  # type: ignore[assignment]
    lines = [f"moves case seed={seed}", f"case: {case.describe()}"]
    if shrunk is not None and shrunk != case:
        lines.append(f"shrunk to: {shrunk.describe()}")
    lines.append("")
    for f in outcome["failures"]:  # type: ignore[union-attr]
        lines.append(f"[{f['oracle']}] {f['message']}")
    lines.append("")
    lines.append("reproduce with:")
    lines.append(f"    {moves_repro_command(seed)}")
    return "\n".join(lines)
