"""Command-line interface: ``python -m repro <command>``.

Commands regenerate the paper's tables and figures, run single benchmarks,
or encode standalone assembly files:

.. code-block:: console

    $ python -m repro lowend            # Table 1 + Figures 11-14
    $ python -m repro fig11             # just one figure
    $ python -m repro swp --loops 400   # Tables 2-3
    $ python -m repro alternatives      # the Section 1 width study
    $ python -m repro bench sha         # one kernel through all setups
    $ python -m repro list              # available workloads
    $ python -m repro encode prog.s --reg-n 12 --diff-n 8
    $ python -m repro lint prog.s       # static IR checks on a file
    $ python -m repro lint all          # ... on every bundled workload
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

__all__ = ["main"]


class _UsageError(Exception):
    """A bad target or parameter found after parsing; ``main`` prints the
    message and exits 2."""


def _resolve_cli_jobs(jobs: int) -> int:
    """Validate ``--jobs``, rendering a failure through the shared
    diagnostics machinery."""
    from repro.parallel import resolve_jobs

    try:
        return resolve_jobs(jobs)
    except ValueError as exc:
        from repro.diagnostics import Diagnostic, Location, Severity

        raise _UsageError(Diagnostic(
            rule="CLI01", name="bad-jobs", severity=Severity.ERROR,
            message=str(exc),
            location=Location(file="--jobs"),
            hint="pass a non-negative integer; 0 means one worker per core",
        ).render()) from None


def _targets(command: str, names):
    """``(display name, function factory)`` for each ``lint``/``analyze``
    target: a ``.s`` path, a bundled workload name, or ``all``.  A
    generator, so a caller that builds each function as it goes parses a
    file before it resolves the next name."""
    import os
    from functools import partial

    from repro.workloads import MIBENCH, get_workload

    for name in names:
        if name == "all":
            yield from ((w.name, w.function) for w in MIBENCH)
        elif os.path.exists(name):
            yield name, partial(_parse_file, name)
        else:
            try:
                yield name, get_workload(name).function
            except KeyError:
                raise _UsageError(
                    f"{command} target {name!r} is neither a file nor a "
                    "workload; try `python -m repro list`") from None


def _add_seed_arg(p) -> None:
    """The shared remap ``--seed`` flag."""
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the remapping search's random restarts")


def _add_parallel_args(p, with_seed: bool = True) -> None:
    """The shared ``--jobs``/``--seed`` experiment flags; ``main``
    validates ``--jobs`` before the handler runs."""
    p.add_argument("--jobs", type=int, default=1,
                   help="process-pool workers for the experiment grid "
                        "(0 = all cores; results are identical for any "
                        "value)")
    p.set_defaults(parallel=True)
    if with_seed:
        _add_seed_arg(p)


def _cmd_table1(args) -> int:
    from repro.experiments.lowend import table1

    print(table1().render())
    return 0


def _cmd_lowend(args) -> int:
    from repro.experiments import run_lowend_experiment
    from repro.experiments.lowend import DIFFERENTIAL_SETUPS
    from repro.regalloc.pipeline import PAPER_SETUPS

    # Figure 12 reports only the differential schemes
    setups = DIFFERENTIAL_SETUPS if args.command == "fig12" else PAPER_SETUPS
    exp = run_lowend_experiment(setups=setups, remap_restarts=args.restarts,
                                profile=not args.static_weights,
                                verify_each_pass=args.verify_each_pass,
                                lint_mode=args.lint_mode,
                                jobs=args.jobs, seed=args.seed)
    if exp.pass_verifier is not None and not exp.pass_verifier.clean:
        print(exp.pass_verifier.attribution(), file=sys.stderr)
    if args.figure is None:
        print(exp.render_all())
    else:
        print(getattr(exp, args.figure)().render())
    return 0


def _cmd_swp(args) -> int:
    from repro.experiments import run_swp_experiment

    exp = run_swp_experiment(n_loops=args.loops, seed=args.seed,
                             jobs=args.jobs)
    print(f"population: {len(exp.loops)} loops; "
          f"{100 * exp.fraction_needing_more_than_32:.1f}% need >32 registers")
    print()
    print(exp.render_all())
    return 0


def _cmd_alternatives(args) -> int:
    from repro.experiments.alternatives import run_alternatives_study

    study = run_alternatives_study(remap_restarts=args.restarts,
                                   jobs=args.jobs)
    print(study.table().render())
    return 0


def _cmd_bench(args) -> int:
    from repro.experiments.reporting import Table
    from repro.machine import (LowEndTimingModel, interpret_or_derive,
                               record_and_profile)
    from repro.regalloc import SETUPS, run_setup
    from repro.workloads import get_workload

    try:
        workload = get_workload(args.name)
    except KeyError:
        print(f"unknown benchmark {args.name!r}; try `python -m repro list`",
              file=sys.stderr)
        return 1
    fn = workload.function()
    run_args = workload.default_args
    recorded, freq = record_and_profile(fn, run_args)
    timing = LowEndTimingModel()
    verifier = None
    if args.verify_each_pass:
        from repro.lint import PassVerifier

        verifier = PassVerifier(mode=args.lint_mode)
        verifier.prefix = args.name
    table = Table(f"{args.name}: all {len(SETUPS)} registered setups",
                  ["setup", "instrs", "spills", "setlr", "cycles"])
    for setup in SETUPS:
        prog = run_setup(fn, setup, freq=freq, remap_restarts=args.restarts,
                         pass_verifier=verifier,
                         remap_seed=args.seed)
        result = interpret_or_derive(prog.final_fn, run_args, recorded)
        report = timing.time(result.columnar)
        table.add_row(setup, prog.n_instructions, prog.n_spills,
                      prog.n_setlr, report.cycles)
    print(table.render())
    if verifier is not None and not verifier.clean:
        print(verifier.attribution(), file=sys.stderr)
        return 1
    return 0


def _cmd_list(args) -> int:
    from repro.workloads import MIBENCH

    for w in MIBENCH:
        print(f"{w.name:14} {w.description}")
    return 0


def _parse_file(path: str):
    """Parse an assembly file, rendering failures like lint findings."""
    from repro.ir import ParseError, parse_function

    try:
        with open(path) as f:
            text = f.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}", file=path)
    return parse_function(text, filename=path)


def _cmd_encode(args) -> int:
    from repro.encoding import EncodingConfig, encode_function, verify_encoding

    fn = _parse_file(args.file)
    config = EncodingConfig(reg_n=args.reg_n, diff_n=args.diff_n,
                            access_order=args.access_order)
    enc = encode_function(fn, config)
    verify_encoding(enc)
    print(enc.fn)
    print(f"# RegN={args.reg_n} DiffN={args.diff_n} "
          f"field width {config.field_bits} bits "
          f"(direct would need {config.direct_field_bits})")
    print(f"# set_last_reg: {enc.n_setlr_inline} out-of-range + "
          f"{enc.n_setlr_join} join repairs "
          f"({100 * enc.overhead_fraction:.1f}% of instructions)")
    return 0


def _cmd_disasm(args) -> int:
    from repro.encoding import EncodingConfig, encode_function, pack_function
    from repro.encoding.objdump import disassemble

    fn = _parse_file(args.file)
    config = EncodingConfig(reg_n=args.reg_n, diff_n=args.diff_n)
    packed = pack_function(encode_function(fn, config))
    print(disassemble(packed))
    return 0


def _cmd_report(args) -> int:
    from repro.experiments.reporting import generate_report

    text = generate_report(n_loops=args.loops,
                           remap_restarts=args.restarts,
                           jobs=args.jobs)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
        print(f"report written to {args.out}")
    else:
        print(text)
    return 0


def _cmd_lint(args) -> int:
    import json

    from repro.encoding import EncodingConfig
    from repro.lint import LintOptions, Severity, run_lint

    encoding = None
    if args.reg_n is not None:
        try:
            encoding = EncodingConfig(reg_n=args.reg_n,
                                      diff_n=args.diff_n or args.reg_n,
                                      access_order=args.access_order)
        except ValueError as exc:
            raise _UsageError(f"bad encoding parameters: {exc}") from None
    options = LintOptions(
        allocated=True if args.allocated else None,
        k=args.k,
        encoding=encoding,
        access_order=args.access_order,
        disabled=frozenset(args.disable or ()),
    )

    targets = [(display, factory())
               for display, factory in _targets("lint", args.targets)]

    # exit-code contract (documented in docs/lint_rules.md): 1 only on
    # error-severity findings — warnings alone pass, unless --strict
    # escalates them or --max-warnings bounds their total; 2 on bad usage
    threshold = Severity.WARNING if args.strict else Severity.ERROR
    as_json = args.format == "json"
    failed = False
    n_warnings = 0
    envelope = []
    for display, fn in targets:
        report = run_lint(fn, options)
        if report.at_least(threshold):
            failed = True
        n_warnings += len(report.warnings)
        if as_json:
            # field names shared with the compile service's error envelope
            # (repro.service.protocol.error_response): name, message,
            # diagnostics, ok — tooling can parse both with one schema
            envelope.append({
                "name": display,
                "ok": report.ok,
                "errors": len(report.errors),
                "warnings": len(report.warnings),
                "diagnostics": [d.to_dict() for d in report.diagnostics],
            })
        elif report.diagnostics:
            print(f"== {display}")
            print(report.render_text())
        else:
            print(f"== {display}: clean")
    if args.max_warnings is not None and n_warnings > args.max_warnings:
        failed = True
        if not as_json:
            print(f"{n_warnings} warning(s) exceed the "
                  f"--max-warnings {args.max_warnings} budget",
                  file=sys.stderr)
    if as_json:
        print(json.dumps({"ok": not failed, "targets": envelope}, indent=2))
    return 1 if failed else 0


def _fmt_abstract(state):
    """JSON-friendly abstract last_reg state: class -> value, TOP -> 'T',
    whole-state None (unreachable block) -> None."""
    from repro.encoding.static_verifier import TOP

    if state is None:
        return None
    return {cls: ("T" if v is TOP else v) for cls, v in sorted(state.items())}


def _cmd_analyze(args) -> int:
    import json

    from repro.encoding.static_verifier import verify_encoding_static
    from repro.regalloc.pipeline import SETUPS, run_setup

    setups = tuple(args.setup) if args.setup else \
        tuple(s for s in SETUPS if s not in ("baseline", "ospill"))
    # every name resolves before anything runs; a fresh Function per setup
    targets = list(_targets("analyze", args.targets))

    failed = False
    results = []
    for display, factory in targets:
        for setup in setups:
            prog = run_setup(factory(), setup,
                             remap_restarts=args.restarts,
                             setlr_elim=not args.no_elim)
            entry = {"name": display, "setup": setup}
            if prog.encoded is None:
                entry["encoded"] = False
                results.append(entry)
                continue
            enc = prog.encoded
            sv = verify_encoding_static(enc)
            analysis = sv.analysis
            if not sv.ok:
                failed = True
            entry.update({
                "encoded": True,
                "ok": sv.ok,
                "iterations": analysis.iterations,
                "blocks": {
                    b.name: {
                        "entry": _fmt_abstract(analysis.entry_states[b.name]),
                        "exit": _fmt_abstract(analysis.exit_states[b.name]),
                    }
                    for b in enc.fn.blocks
                },
                "setlr": {
                    "inline": enc.n_setlr_inline,
                    "join": enc.n_setlr_join,
                    "removed": enc.n_setlr_removed,
                    "final": enc.n_setlr,
                    "redundant_remaining": analysis.n_redundant,
                    "dead_remaining": analysis.n_dead,
                },
                "errors": len(sv.report.errors),
                "warnings": len(sv.report.warnings),
                "diagnostics": [d.to_dict() for d in sv.report.diagnostics],
            })
            results.append(entry)

    if args.format == "json":
        print(json.dumps({"ok": not failed, "results": results}, indent=2))
        return 1 if failed else 0

    for entry in results:
        head = f"== {entry['name']}/{entry['setup']}"
        if not entry["encoded"]:
            print(f"{head}: direct encoding (nothing to analyze)")
            continue
        s = entry["setlr"]
        verdict = "ok" if entry["ok"] else f"{entry['errors']} error(s)"
        print(f"{head}: {verdict}, {entry['iterations']} fixpoint "
              "iteration(s)")
        print(f"   set_last_reg: {s['inline']} out-of-range + {s['join']} "
              f"join - {s['removed']} eliminated = {s['final']} "
              f"({s['redundant_remaining']} redundant, "
              f"{s['dead_remaining']} dead remaining)")
        for bname, states in entry["blocks"].items():
            if states["entry"] is None:
                print(f"   {bname:12} unreachable")
                continue
            ein = " ".join(f"{c}={v}" for c, v in states["entry"].items())
            eout = " ".join(f"{c}={v}" for c, v in states["exit"].items())
            print(f"   {bname:12} entry[{ein}] exit[{eout}]")
        for d in entry["diagnostics"]:
            print(f"   {d['severity']}: {d['message']} [{d['rule']}]")
    return 1 if failed else 0


def _cmd_sweep(args) -> int:
    from repro.experiments import run_regn_sweep

    sweep = run_regn_sweep(remap_restarts=args.restarts, jobs=args.jobs,
                           seed=args.seed)
    print(sweep.table().render())
    print(f"\nbest RegN on this suite: {sweep.best_reg_n()}")
    return 0


def _cmd_allocators(args) -> int:
    import json

    from repro.experiments.reporting import Table
    from repro.regalloc.pipeline import SETUP_TABLE

    if args.json:
        print(json.dumps({"allocators": [r.to_dict() for r in SETUP_TABLE]},
                         indent=2, sort_keys=True))
        return 0
    table = Table(f"allocator zoo: {len(SETUP_TABLE)} registered backends",
                  ["name", "spill style", "diff", "ssa", "description"])
    for row in SETUP_TABLE:
        table.add_row(row.name, row.spill_style,
                      "yes" if row.differential else "no",
                      "yes" if row.needs_ssa else "no", row.description)
    print(table.render())
    return 0


def _fuzz_config_from_args(args):
    from repro.fuzz import FuzzConfig

    try:
        return FuzzConfig(
            n_regions=args.regions, loop_depth=args.loop_depth,
            base_values=args.values, ops_per_block=args.ops,
            loop_trip=args.trip, fresh_bias=args.fresh_bias,
            call_density=args.calls, mem_density=args.mem,
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")


def _add_fuzz_knobs(p) -> None:
    """Generator knobs shared by ``fuzz repro`` and ``fuzz gen``; the
    defaults mirror :class:`repro.fuzz.FuzzConfig`."""
    p.add_argument("--regions", type=int, default=4,
                   help="sequential control-flow regions")
    p.add_argument("--loop-depth", type=int, default=1,
                   help="maximum loop nesting depth (0 = no loops)")
    p.add_argument("--values", type=int, default=8,
                   help="values initialised up front (pressure floor)")
    p.add_argument("--ops", type=int, default=5,
                   help="ALU instructions per straight run")
    p.add_argument("--trip", type=int, default=3,
                   help="maximum loop trip count")
    p.add_argument("--fresh-bias", type=float, default=0.25,
                   help="probability an ALU result starts a new live range")
    p.add_argument("--calls", type=float, default=0.0,
                   help="call density per region body")
    p.add_argument("--mem", type=float, default=0.0,
                   help="memory-op density per region body")


def _fuzz_setups(args):
    from repro.regalloc.pipeline import SETUPS

    if not args.setups:
        return None
    setups = tuple(s.strip() for s in args.setups.split(",") if s.strip())
    for s in setups:
        if s not in SETUPS:
            raise SystemExit(f"unknown setup {s!r}; expected one of {SETUPS}")
    return setups


def _cmd_fuzz_run(args) -> int:
    from repro.fuzz import run_fuzz
    from repro.fuzz.harness import format_failure, shrink_case
    from repro.fuzz.gen import FuzzConfig

    setups = _fuzz_setups(args)
    report = run_fuzz(args.seed, args.cases, jobs=args.jobs, setups=setups,
                      restarts=args.restarts)
    print(report.summary())
    if report.ok:
        return 0
    first = report.failures[0]
    config = FuzzConfig.from_dict(dict(first["config"]))
    shrunk = shrink_case(int(first["seed"]), config, setups, args.restarts)
    text = format_failure(first, shrunk)
    print(text)
    if args.repro_out:
        with open(args.repro_out, "w") as fh:
            fh.write(text + "\n")
        print(f"minimized reproducer written to {args.repro_out}")
    return 1


def _cmd_fuzz_repro(args) -> int:
    from repro.fuzz.harness import format_failure, run_case

    outcome = run_case(args.seed, _fuzz_config_from_args(args),
                       _fuzz_setups(args), args.restarts)
    if not outcome["failures"]:
        print(f"case seed={args.seed}: all oracles agree")
        return 0
    print(format_failure(outcome))
    return 1


def _cmd_fuzz_gen(args) -> int:
    from repro.fuzz import generate_fuzz_function
    from repro.ir import format_function

    print(format_function(
        generate_fuzz_function(args.seed, _fuzz_config_from_args(args))))
    return 0


def _cmd_fuzz_moves(args) -> int:
    from repro.fuzz.moves import (format_moves_failure, generate_moves_case,
                                  run_explicit_case, run_moves_fuzz,
                                  shrink_moves_case)

    if args.replay is not None:
        outcome = run_explicit_case(args.replay,
                                    generate_moves_case(args.replay))
        if not outcome["failures"]:
            print(f"moves case seed={args.replay}: all oracles agree")
            return 0
        print(format_moves_failure(outcome))
        return 1

    report = run_moves_fuzz(args.seed, args.cases, jobs=args.jobs)
    print(report.summary())
    if report.ok:
        return 0
    first = report.failures[0]
    shrunk = shrink_moves_case(int(first["seed"]), first["case"])
    text = format_moves_failure(first, shrunk)
    print(text)
    if args.repro_out:
        with open(args.repro_out, "w") as fh:
            fh.write(text + "\n")
        print(f"minimized reproducer written to {args.repro_out}")
    return 1


def _cmd_serve(args) -> int:
    from repro.service.server import ServiceServer
    from repro.service.store import ArtifactStore, default_store_root

    store = ArtifactStore(args.store or default_store_root(),
                          max_bytes=args.cache_bytes,
                          hot_entries=args.hot_entries)
    server = ServiceServer(
        args.host, args.port, store=store, jobs=args.jobs,
        queue_limit=args.queue_limit, request_timeout=args.timeout,
        allow_debug=args.allow_debug, telemetry_path=args.telemetry,
        verbose=args.verbose,
    )

    def announce(host: str, port: int) -> None:
        print(f"repro service listening on {host}:{port} "
              f"(jobs={args.jobs}, store={store.root})", flush=True)
        if args.ready_file:
            with open(args.ready_file, "w") as fh:
                fh.write(f"{host}:{port}\n")

    server.serve_forever(ready_callback=announce)
    print("repro service drained and stopped", flush=True)
    return 0


def _cmd_request(args) -> int:
    import json
    import os

    from repro.service.client import ServiceClient, ServiceError
    from repro.service.protocol import build_compile_request

    if os.path.exists(args.target):
        with open(args.target) as fh:
            request = build_compile_request(
                text=fh.read(), setup=args.setup, **_request_options(args))
    else:
        request = build_compile_request(
            workload=args.target, setup=args.setup,
            **_request_options(args))

    client = ServiceClient(args.host, args.port, timeout=args.timeout)
    reply = client.compile_request(request)
    if args.json:
        print(reply.body.decode("ascii"))
        return 0 if reply.ok else 1
    try:
        result = reply.result()
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        envelope = exc.envelope.get("error") or {}
        for diag in envelope.get("diagnostics", ()):
            print(f"  {diag.get('rule')}/{diag.get('name')}: "
                  f"{diag.get('message')}", file=sys.stderr)
        return 1
    alloc = result["allocation"]
    print(f"{result['name']} via {result['setup']} "
          f"[cache {reply.cache or 'n/a'}]")
    print(f"  instructions {alloc['instructions']}  "
          f"spills {alloc['spills']}  setlr {alloc['setlr']}")
    if result.get("cycles"):
        cyc = result["cycles"]
        print(f"  cycles {cyc['cycles']}  cpi {cyc['cpi']:.2f}  "
              f"energy {cyc['energy']:.1f}  "
              f"checksum {result['checksum']}")
    return 0


def _request_options(args) -> dict:
    options = dict(base_k=args.base_k, reg_n=args.reg_n,
                   diff_n=args.diff_n, access_order=args.access_order,
                   restarts=args.restarts, seed=args.seed)
    out = dict(options, simulate=not args.no_simulate)
    if args.args is not None:
        out["args"] = [int(a) for a in args.args.split(",") if a.strip()]
    if args.profile:
        out["profile"] = True
    return out


def _cmd_cache(args) -> int:
    from repro.service.store import ArtifactStore, default_store_root

    store = ArtifactStore(args.store or default_store_root())
    if args.cache_command == "stats":
        stats = store.stats()
        print(f"store {stats['root']}: {stats['entries']} artifact(s), "
              f"{stats['bytes']} / {stats['max_bytes']} bytes")
        return 0
    removed = store.clear()
    print(f"store {store.root}: removed {removed} artifact(s)")
    return 0


def _cmd_service_smoke(args) -> int:
    from repro.service.smoke import run_smoke

    return run_smoke(out_path=args.out, cases=args.cases, jobs=args.jobs,
                     request_timeout=args.timeout)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser with all subcommands."""
    from repro.regalloc.pipeline import SETUPS as setup_choices

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Differential Register Allocation' "
                    "(PLDI 2005): regenerate the paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the figure commands name the LowEndExperiment method that renders
    # them; lowend renders them all
    for name, help_text, figure in [
        ("lowend", "Table 1 and Figures 11-14 (the MiBench study)", None),
        ("table1", "the low-end machine configuration", None),
        ("fig11", "static spill percentage", "fig11_spills"),
        ("fig12", "set_last_reg cost percentage", "fig12_cost"),
        ("fig13", "code size relative to baseline", "fig13_codesize"),
        ("fig14", "speedup over baseline", "fig14_speedup"),
    ]:
        p = sub.add_parser(name, help=help_text)
        if name == "table1":
            p.set_defaults(func=_cmd_table1)
            continue
        p.add_argument("--restarts", type=int, default=50,
                       help="remapping restarts (paper uses 1000)")
        p.add_argument("--static-weights", action="store_true",
                       help="use static loop-nest frequency estimates "
                            "instead of interpreter profiles")
        p.add_argument("--verify-each-pass", action="store_true",
                       help="run the static IR checker between pipeline "
                            "stages and attribute the first violation")
        p.add_argument("--lint-mode", default="strict",
                       choices=("strict", "warn"),
                       help="strict: stop at the offending pass; "
                            "warn: record and continue")
        _add_parallel_args(p)
        p.set_defaults(func=_cmd_lowend, figure=figure)

    p = sub.add_parser("swp", help="Tables 2-3 (the software-pipelining study)")
    p.add_argument("--loops", type=int, default=400,
                   help="population size (paper: 1928)")
    p.add_argument("--seed", type=int, default=2005,
                   help="loop-population seed")
    _add_parallel_args(p, with_seed=False)
    p.set_defaults(func=_cmd_swp)

    p = sub.add_parser("alternatives",
                       help="direct-8 vs direct-16 vs differential-12 "
                            "(the Section 1 motivation)")
    p.add_argument("--restarts", type=int, default=25)
    _add_parallel_args(p, with_seed=False)
    p.set_defaults(func=_cmd_alternatives)

    p = sub.add_parser("bench", help="run one benchmark through all setups")
    p.add_argument("name")
    p.add_argument("--restarts", type=int, default=50)
    p.add_argument("--verify-each-pass", action="store_true",
                   help="lint the IR after every pipeline stage")
    p.add_argument("--lint-mode", default="strict",
                   choices=("strict", "warn"))
    _add_seed_arg(p)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("list", help="list available benchmarks")
    p.set_defaults(func=_cmd_list)

    p = sub.add_parser("allocators",
                       help="list the registered allocator backends and "
                            "their capability metadata (the zoo)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output")
    p.set_defaults(func=_cmd_allocators)

    p = sub.add_parser("encode",
                       help="differentially encode an assembly file")
    p.add_argument("file")
    p.add_argument("--reg-n", type=int, default=12)
    p.add_argument("--diff-n", type=int, default=8)
    p.add_argument("--access-order", default="src_first",
                   choices=("src_first", "dst_first", "two_address"))
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("disasm",
                       help="encode an assembly file to bits and show the "
                            "annotated disassembly")
    p.add_argument("file")
    p.add_argument("--reg-n", type=int, default=12)
    p.add_argument("--diff-n", type=int, default=8)
    p.set_defaults(func=_cmd_disasm)

    p = sub.add_parser("lint",
                       help="static IR checks (rules L001-L011, see "
                            "docs/lint_rules.md) on assembly files or "
                            "bundled workloads")
    p.add_argument("targets", nargs="+",
                   help=".s file path, workload name, or 'all'")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="output format; json shares field names with the "
                        "compile-service error envelope")
    p.add_argument("--strict", action="store_true",
                   help="treat warnings as failures")
    p.add_argument("--max-warnings", type=int, default=None, metavar="N",
                   help="fail (exit 1) when more than N warnings accumulate "
                        "across all targets")
    p.add_argument("--allocated", action="store_true",
                   help="hold the input to post-allocation invariants")
    p.add_argument("--k", type=int,
                   help="physical register budget to enforce")
    p.add_argument("--reg-n", type=int,
                   help="RegN: enables differential-space and "
                        "set_last_reg range checks")
    p.add_argument("--diff-n", type=int,
                   help="DiffN (defaults to RegN when only RegN is given)")
    p.add_argument("--access-order", default="src_first",
                   choices=("src_first", "dst_first", "two_address"))
    p.add_argument("--disable", action="append", metavar="RULE",
                   help="rule id or name to skip (repeatable)")
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser("analyze",
                       help="static decode-stage analysis: per-block "
                            "last_reg facts, E-series diagnostics and "
                            "set_last_reg reduction stats")
    p.add_argument("targets", nargs="+",
                   help=".s file path, workload name, or 'all'")
    p.add_argument("--setup", action="append", choices=setup_choices,
                   help="setup(s) to analyze (repeatable; default: the "
                        "differential setups)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--restarts", type=int, default=10,
                   help="remapping restarts (analysis is exact either way)")
    p.add_argument("--no-elim", action="store_true",
                   help="skip the setlr_elim post-pass, showing what it "
                        "would remove as redundant/dead facts")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("report",
                       help="run every study and emit one combined report")
    p.add_argument("--out", help="write to a file instead of stdout")
    p.add_argument("--loops", type=int, default=400)
    p.add_argument("--restarts", type=int, default=50)
    _add_parallel_args(p, with_seed=False)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("sweep",
                       help="RegN sweep at fixed field width (why RegN=12)")
    p.add_argument("--restarts", type=int, default=15)
    _add_parallel_args(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("fuzz",
                       help="differential fuzzing: random programs through "
                            "every allocator setup and oracle pair")
    fuzz_sub = p.add_subparsers(dest="fuzz_command", required=True)

    fp = fuzz_sub.add_parser("run", help="run a seeded fuzz campaign")
    fp.add_argument("--cases", type=int, default=50,
                    help="number of generated programs")
    fp.add_argument("--restarts", type=int, default=2,
                    help="remapping restarts per differential setup")
    fp.add_argument("--setups", default="",
                    help="comma-separated setup subset (default: all)")
    fp.add_argument("--repro-out", default="",
                    help="write the minimized reproducer of the first "
                         "failure to this file (CI artifact)")
    _add_parallel_args(fp)
    fp.set_defaults(func=_cmd_fuzz_run)

    fp = fuzz_sub.add_parser("repro",
                             help="replay one case from its seed and knobs")
    fp.add_argument("--seed", type=int, required=True,
                    help="generator seed of the case")
    fp.add_argument("--restarts", type=int, default=2)
    fp.add_argument("--setups", default="")
    _add_fuzz_knobs(fp)
    fp.set_defaults(func=_cmd_fuzz_repro)

    fp = fuzz_sub.add_parser("gen",
                             help="print the program one seed generates")
    fp.add_argument("--seed", type=int, required=True)
    _add_fuzz_knobs(fp)
    fp.set_defaults(func=_cmd_fuzz_gen)

    fp = fuzz_sub.add_parser("moves",
                             help="targeted fuzzing of the parallel-move "
                                  "resolver (random partial permutations "
                                  "through five oracles)")
    fp.add_argument("--cases", type=int, default=200,
                    help="number of generated move cases")
    fp.add_argument("--replay", type=int, default=None, metavar="SEED",
                    help="replay one case from its derived seed")
    fp.add_argument("--repro-out", default="",
                    help="write the minimized reproducer of the first "
                         "failure to this file (CI artifact)")
    _add_parallel_args(fp)
    fp.set_defaults(func=_cmd_fuzz_moves)

    p = sub.add_parser("serve",
                       help="run the allocation service: a compile "
                            "daemon with a content-addressed artifact "
                            "store (see docs/service.md)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8421,
                   help="TCP port (0 = pick a free one)")
    p.add_argument("--store", default="",
                   help="artifact store directory (default: "
                        "$REPRO_SERVICE_STORE or ~/.cache/repro/service)")
    p.add_argument("--cache-bytes", type=int, default=64 * 1024 * 1024,
                   help="artifact store size cap; LRU-evicted beyond it")
    p.add_argument("--hot-entries", type=int, default=128,
                   help="in-memory hot-tier entry cap in front of the "
                        "store (0 disables it; hit/miss counters in "
                        "/statsz)")
    p.add_argument("--queue-limit", type=int, default=64,
                   help="bounded compile queue; beyond it requests get "
                        "429 + Retry-After")
    p.add_argument("--timeout", type=float, default=60.0,
                   help="per-request compile deadline (expired waits "
                        "answer 504; the artifact is still cached)")
    p.add_argument("--telemetry", default="",
                   help="write a metrics snapshot here on shutdown")
    p.add_argument("--ready-file", default="",
                   help="write host:port here once listening (smoke/CI)")
    p.add_argument("--allow-debug", action="store_true",
                   help="honor debug_sleep in requests (testing only)")
    p.add_argument("--verbose", action="store_true",
                   help="log every HTTP request to stderr")
    _add_parallel_args(p, with_seed=False)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("request",
                       help="send one compile request to a running "
                            "`repro serve` instance")
    p.add_argument("target", help="workload name or .s file path")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8421)
    p.add_argument("--timeout", type=float, default=120.0,
                   help="client-side HTTP timeout")
    p.add_argument("--setup", default="remapping", choices=setup_choices)
    p.add_argument("--base-k", type=int, default=8)
    p.add_argument("--reg-n", type=int, default=12)
    p.add_argument("--diff-n", type=int, default=8)
    p.add_argument("--access-order", default="src_first",
                   choices=("src_first", "dst_first", "two_address"))
    p.add_argument("--restarts", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--args", default=None,
                   help="comma-separated run arguments (default: the "
                        "workload's own)")
    p.add_argument("--no-simulate", action="store_true",
                   help="skip interpretation and cycle accounting")
    p.add_argument("--profile", action="store_true",
                   help="use interpreter profiles instead of static "
                        "frequency estimates")
    p.add_argument("--json", action="store_true",
                   help="print the raw response body")
    p.set_defaults(func=_cmd_request)

    p = sub.add_parser("cache",
                       help="inspect or clear the service artifact store")
    cache_sub = p.add_subparsers(dest="cache_command", required=True)
    for name, help_text in [("stats", "entry count and byte totals"),
                            ("clear", "delete every artifact")]:
        cp = cache_sub.add_parser(name, help=help_text)
        cp.add_argument("--store", default="",
                        help="store directory (default: "
                             "$REPRO_SERVICE_STORE or "
                             "~/.cache/repro/service)")
        cp.set_defaults(func=_cmd_cache)

    p = sub.add_parser("service-smoke",
                       help="end-to-end service check: boot a daemon, "
                            "drive mixed traffic twice, verify hit-rate "
                            "and SIGTERM drain (the CI job)")
    p.add_argument("--out", default="TELEMETRY_service.json",
                   help="telemetry snapshot path (CI artifact)")
    p.add_argument("--cases", type=int, default=50)
    p.add_argument("--jobs", type=int, default=2)
    p.add_argument("--timeout", type=float, default=5.0,
                   help="server request deadline (the forced-timeout "
                        "case sleeps past it)")
    p.set_defaults(func=_cmd_service_smoke)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    from repro.diagnostics import LintError
    from repro.ir import ParseError

    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "parallel", False):
            args.jobs = _resolve_cli_jobs(args.jobs)
        return args.func(args)
    except ParseError as exc:
        # shared diagnostic formatting: parse errors render like lint
        # findings, with file and line
        print(exc.diagnostic.render(), file=sys.stderr)
        return 1
    except LintError as exc:
        # strict-mode lint failures (encoder preconditions, per-pass
        # verification) render their report instead of a traceback
        print(exc, file=sys.stderr)
        return 1
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
