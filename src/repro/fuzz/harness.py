"""Differential oracle harness: generated programs vs every oracle pair.

One *case* is a ``(seed, FuzzConfig)`` pair.  For each case the harness
generates a program and cross-checks, per allocator setup:

* **symbolic checker** — ``run_setup`` proves every allocation it
  returns (:mod:`repro.regalloc.checker`); a failed proof surfaces as a
  :class:`~repro.diagnostics.LintError` carrying the C-series report;
* **allocator semantics** — the allocated function returns what the
  original does, on several probe inputs;
* **engine agreement** — the fast (pre-decoded, columnar-recording)
  interpreter engine and the reference dispatch loop agree on return
  value and step count, for both the original and the allocated function;
* **binary round trip** — for differential setups, ``pack_function`` →
  ``unpack_function`` reproduces the allocated function exactly (modulo
  the decode-discarded ``setlr``), and re-encoding the decoded function
  yields the *identical bitstream* (encode is deterministic);
* **serial/parallel parity** — falls out of the seeding discipline: every
  case's entropy comes from :func:`repro.parallel.derive_seed`, so
  ``run_fuzz(jobs=N)`` is bit-identical to ``run_fuzz(jobs=1)`` (asserted
  in the test suite).

Failures shrink greedily in config space — each knob is walked down while
the failure persists — and render as a self-contained report that ends in
a ``repro fuzz repro --seed N ...`` command line.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.fuzz.gen import FuzzConfig, generate_fuzz_function
from repro.parallel import derive_seed, parallel_map

__all__ = ["FuzzReport", "default_config", "run_case", "run_fuzz",
           "shrink_config", "shrink_case", "repro_command",
           "format_failure"]

PROBE_ARGS: Tuple[Tuple[int, ...], ...] = ((0,), (2,), (5,))
_MAX_STEPS = 500_000


# ----------------------------------------------------------------------
# case derivation
# ----------------------------------------------------------------------

def default_config(base_seed: int, index: int) -> FuzzConfig:
    """Draw one case's knobs from the base seed — never from global or
    worker-local randomness, so any process reproduces any case."""
    rng = random.Random(derive_seed(base_seed, "fuzz-knobs", index))
    return FuzzConfig(
        n_regions=rng.randrange(1, 5),
        loop_depth=rng.randrange(0, 3),
        base_values=rng.randrange(3, 11),
        ops_per_block=rng.randrange(3, 7),
        loop_trip=rng.randrange(1, 4),
        fresh_bias=rng.choice((0.0, 0.25, 0.5)),
        call_density=rng.choice((0.0, 0.0, 0.3)),
        mem_density=rng.choice((0.0, 0.4)),
    )


def case_seed(base_seed: int, index: int) -> int:
    """The generator seed of case ``index``."""
    return derive_seed(base_seed, "fuzz-case", index)


# ----------------------------------------------------------------------
# one case through every oracle
# ----------------------------------------------------------------------

def _fail(failures: List[Dict[str, str]], oracle: str, setup: str,
          message: str) -> None:
    failures.append({"oracle": oracle, "setup": setup, "message": message})


def run_case(seed: int, config: FuzzConfig,
             setups: Optional[Sequence[str]] = None,
             restarts: int = 2) -> Dict[str, object]:
    """Run one generated program through every oracle pair.

    Returns a picklable outcome dict: ``{"seed", "config", "failures"}``
    with an empty failure list meaning all oracles agreed.  Pure function
    of its arguments — the parallel fan-out depends on it.
    """
    from repro.diagnostics import LintError, Severity
    from repro.encoding.binary import pack_function, unpack_function
    from repro.encoding.encoder import encode_function
    from repro.encoding.setlr_elim import eliminate_redundant_setlr
    from repro.encoding.static_verifier import verify_encoding_static
    from repro.fuzz.mutate import strip_setlr
    from repro.ir.interp import InterpError, Interpreter
    from repro.ir.printer import format_function
    from repro.lint import LintOptions, run_lint
    from repro.regalloc.pipeline import SETUPS, run_setup

    setups = tuple(setups) if setups is not None else SETUPS
    failures: List[Dict[str, str]] = []
    outcome: Dict[str, object] = {
        "seed": seed, "config": config.to_dict(), "failures": failures,
    }

    fn = generate_fuzz_function(seed, config)
    has_calls = any(i.op == "call" for i in fn.instructions())

    # oracle 0: the generator's own contract — lint-clean by construction
    lint = run_lint(fn, LintOptions())
    if lint.at_least(Severity.WARNING):
        _fail(failures, "gen-lint", "-", lint.render_text())
        return outcome

    # oracle 1: engine agreement on the input program
    refs: Dict[Tuple[int, ...], int] = {}
    for args in PROBE_ARGS:
        try:
            ref = Interpreter(max_steps=_MAX_STEPS, record_trace=False,
                              engine="reference").run(fn, args)
            fast = Interpreter(max_steps=_MAX_STEPS).run(fn, args)
        except InterpError as exc:
            _fail(failures, "gen-interp", "-", f"args {args}: {exc}")
            return outcome
        refs[args] = ref.return_value
        if (fast.return_value, fast.steps) != (ref.return_value, ref.steps):
            _fail(failures, "engine-agreement", "-",
                  f"args {args}: reference ({ref.return_value}, "
                  f"{ref.steps} steps) vs fast ({fast.return_value}, "
                  f"{fast.steps})")

    for setup in setups:
        try:
            prog = run_setup(fn, setup, remap_restarts=restarts,
                             remap_seed=derive_seed(seed, "remap", setup),
                             verify=True)
        except LintError as exc:
            # a failed semantics proof carries C-series diagnostics; any
            # other rejection (encoder preconditions) is a pipeline finding
            proof = any(d.rule.startswith("C") for d in exc.diagnostics)
            _fail(failures, "symbolic-checker" if proof else "pipeline",
                  setup, str(exc))
            continue
        except Exception as exc:  # any pipeline crash is a finding
            _fail(failures, "pipeline", setup,
                  f"{type(exc).__name__}: {exc}")
            continue

        # oracle: the allocation-interference lint (L010) must accept the
        # coloring run_setup just proved semantics-preserving
        alloc_lint = run_lint(
            prog.final_fn,
            LintOptions(allocated=True,
                        coloring=prog.allocation.coloring,
                        original=prog.allocation.colored_fn),
            only=("L010",))
        if alloc_lint.errors:
            _fail(failures, "lint-interference", setup,
                  alloc_lint.render_text())

        for args, expect in refs.items():
            try:
                got = Interpreter(max_steps=_MAX_STEPS).run(
                    prog.final_fn, args)
            except InterpError as exc:
                _fail(failures, "alloc-semantics", setup,
                      f"args {args}: fault {exc}")
                continue
            if got.return_value != expect:
                _fail(failures, "alloc-semantics", setup,
                      f"args {args}: {got.return_value} != {expect}")
        try:
            refrun = Interpreter(max_steps=_MAX_STEPS,
                                 engine="reference").run(
                prog.final_fn, PROBE_ARGS[-1])
            if refrun.return_value != refs[PROBE_ARGS[-1]]:
                _fail(failures, "engine-agreement", setup,
                      f"reference engine on allocated fn: "
                      f"{refrun.return_value} != {refs[PROBE_ARGS[-1]]}")
        except InterpError as exc:
            _fail(failures, "engine-agreement", setup,
                  f"reference engine fault on allocated fn: {exc}")

        if prog.encoded is not None:
            # oracle: the static verifier must agree with the decode
            # replay that run_setup already passed
            sv = verify_encoding_static(prog.encoded)
            if not sv.ok:
                _fail(failures, "static-verifier", setup,
                      "static verifier rejects a replay-verified "
                      "encoding:\n" + sv.report.render_text())
            # setlr_elim ran in the pipeline, so nothing may remain
            # provably redundant or dead
            if any(f.removable for f in sv.analysis.setlr_facts):
                _fail(failures, "static-verifier", setup,
                      "setlr_elim left a removable set_last_reg behind")
            # oracle: the redundant-setlr lint (L011) sees the same facts
            # through the rule catalogue — post-elim it must be silent
            setlr_lint = run_lint(
                prog.final_fn,
                LintOptions(allocated=True, encoding=prog.encoded.config,
                            access_order=prog.encoded.config.access_order),
                only=("L011",))
            if setlr_lint.at_least(Severity.WARNING):
                _fail(failures, "lint-setlr", setup,
                      setlr_lint.render_text())

        if prog.encoded is not None and not has_calls:
            stripped = strip_setlr(prog.final_fn)
            try:
                packed = pack_function(prog.encoded)
                decoded = unpack_function(packed)
            except Exception as exc:
                _fail(failures, "binary-roundtrip", setup,
                      f"{type(exc).__name__}: {exc}")
                continue
            if format_function(decoded) != format_function(stripped):
                _fail(failures, "binary-roundtrip", setup,
                      "decode does not reproduce the allocated function")
                continue
            try:
                re_enc = encode_function(decoded, prog.encoded.config)
                # the pipeline ran setlr_elim on the original encoding;
                # determinism of encode + elim makes the bitstreams match
                eliminate_redundant_setlr(re_enc)
                re_packed = pack_function(re_enc)
            except Exception as exc:
                _fail(failures, "re-encode", setup,
                      f"{type(exc).__name__}: {exc}")
                continue
            if (re_packed.data, re_packed.n_bits) != (packed.data,
                                                      packed.n_bits):
                _fail(failures, "re-encode", setup,
                      "re-encoded bitstream differs from the original")
    return outcome


def _case_worker(payload: Tuple[int, Dict[str, object],
                                Optional[Tuple[str, ...]], int]
                 ) -> Dict[str, object]:
    """Module-level (picklable) worker for :func:`parallel_map`."""
    seed, config_dict, setups, restarts = payload
    return run_case(seed, FuzzConfig.from_dict(dict(config_dict)),
                    setups, restarts)


# ----------------------------------------------------------------------
# fuzz runs
# ----------------------------------------------------------------------

@dataclass
class FuzzReport:
    """Outcome of a whole fuzz run."""

    base_seed: int
    cases: List[Dict[str, object]] = field(default_factory=list)

    @property
    def failures(self) -> List[Dict[str, object]]:
        return [c for c in self.cases if c["failures"]]

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        """One-line human summary, also the CLI's success output."""
        return (f"{len(self.cases)} case(s), "
                f"{len(self.failures)} with discrepancies")


def run_fuzz(base_seed: int, n_cases: int, jobs: int = 1,
             setups: Optional[Sequence[str]] = None,
             restarts: int = 2) -> FuzzReport:
    """Run ``n_cases`` derived cases; bit-identical for any ``jobs``."""
    tasks = [
        (case_seed(base_seed, i),
         default_config(base_seed, i).to_dict(),
         tuple(setups) if setups is not None else None,
         restarts)
        for i in range(n_cases)
    ]
    return FuzzReport(base_seed=base_seed,
                      cases=parallel_map(_case_worker, tasks, jobs))


# ----------------------------------------------------------------------
# shrinking and reproduction
# ----------------------------------------------------------------------

_SHRINK_ORDER = ("call_density", "mem_density", "fresh_bias", "loop_depth",
                 "n_regions", "ops_per_block", "loop_trip", "base_values")
_FLOORS = {"n_regions": 1, "loop_depth": 0, "base_values": 2,
           "ops_per_block": 2, "loop_trip": 1, "fresh_bias": 0.0,
           "call_density": 0.0, "mem_density": 0.0}


def _lower(knob: str, value) -> Optional[object]:
    """The next smaller candidate for a knob, or None at its floor."""
    floor = _FLOORS[knob]
    if value <= floor:
        return None
    if isinstance(value, float):
        return floor if value - 0.25 <= floor else round(value - 0.25, 3)
    return value - 1


def shrink_config(failing: Callable[[FuzzConfig], bool],
                  config: FuzzConfig, max_attempts: int = 200) -> FuzzConfig:
    """Greedily minimise ``config`` while ``failing`` stays true.

    Walks each knob toward its floor, repeating until a full pass makes no
    progress.  ``failing`` is re-evaluated on every candidate, so the
    result is a genuine reproducer, not an extrapolation.
    """
    from dataclasses import replace

    current = config
    attempts = 0
    progressed = True
    while progressed and attempts < max_attempts:
        progressed = False
        for knob in _SHRINK_ORDER:
            while attempts < max_attempts:
                lower = _lower(knob, getattr(current, knob))
                if lower is None:
                    break
                candidate = replace(current, **{knob: lower})
                attempts += 1
                if failing(candidate):
                    current = candidate
                    progressed = True
                else:
                    break
    return current


def shrink_case(seed: int, config: FuzzConfig,
                setups: Optional[Sequence[str]] = None,
                restarts: int = 2) -> FuzzConfig:
    """Minimise a failing case's config; the seed is part of its identity
    and never changes (the knobs steer the same deterministic stream)."""
    def failing(candidate: FuzzConfig) -> bool:
        return bool(run_case(seed, candidate, setups, restarts)["failures"])

    return shrink_config(failing, config)


def repro_command(seed: int, config: FuzzConfig) -> str:
    """The exact CLI invocation that replays one case."""
    return f"python -m repro fuzz repro --seed {seed} {config.cli_args()}"


def format_failure(outcome: Dict[str, object],
                   shrunk: Optional[FuzzConfig] = None) -> str:
    """A self-contained failure report: program, findings, repro command."""
    from repro.ir.printer import format_function

    seed = outcome["seed"]  # type: ignore[assignment]
    config = FuzzConfig.from_dict(dict(outcome["config"]))  # type: ignore
    shown = shrunk or config
    lines = [f"fuzz case seed={seed}", f"config: {shown.to_dict()}"]
    if shrunk is not None and shrunk != config:
        lines.append(f"(shrunk from: {config.to_dict()})")
    lines.append("")
    lines.append(format_function(generate_fuzz_function(int(seed), shown)))
    lines.append("")
    for f in outcome["failures"]:  # type: ignore[union-attr]
        lines.append(f"[{f['oracle']}/{f['setup']}] {f['message']}")
    lines.append("")
    lines.append("reproduce with:")
    lines.append(f"    {repro_command(int(seed), shown)}")
    return "\n".join(lines)
