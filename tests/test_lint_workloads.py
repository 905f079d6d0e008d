"""The linter over the bundled workloads, plus the CLI subcommand.

Every bundled benchmark must lint clean — this is the import-test-time
safety net: a workload edit that breaks an IR invariant fails here before
it reaches the allocators.
"""

import json

import pytest

from repro.cli import main
from repro.fuzz import FuzzConfig, generate_fuzz_function
from repro.ir.printer import format_function
from repro.lint import Severity, run_lint
from repro.workloads.mibench import MIBENCH


@pytest.mark.parametrize("workload", MIBENCH, ids=lambda w: w.name)
def test_every_workload_lints_clean(workload):
    report = run_lint(workload.function())
    assert report.ok, report.render_text()
    # pre-allocation IR should not even warn
    assert not report.at_least(Severity.WARNING), report.render_text()


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_synthetic_functions_lint_clean(seed):
    fn = generate_fuzz_function(seed, FuzzConfig(
        n_regions=3, base_values=7, ops_per_block=6))
    report = run_lint(fn)
    assert report.ok, report.render_text()


def test_workloads_round_trip_through_printer_and_lint(tmp_path):
    w = next(w for w in MIBENCH if w.name == "crc32")
    path = tmp_path / "crc32.s"
    path.write_text(format_function(w.function()))
    assert main(["lint", str(path)]) == 0


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def test_cli_lint_all_is_clean(capsys):
    assert main(["lint", "all"]) == 0
    out = capsys.readouterr().out
    assert out.count("clean") == len(MIBENCH)


def test_cli_lint_single_workload(capsys):
    assert main(["lint", "crc32"]) == 0
    assert "crc32: clean" in capsys.readouterr().out


def test_cli_lint_reports_findings(tmp_path, capsys):
    path = tmp_path / "broken.s"
    path.write_text(
        "func f():\n"
        "entry:\n"
        "    ldslot r0, slot0\n"
        "    ret r0\n"
    )
    assert main(["lint", str(path)]) == 1
    out = capsys.readouterr().out
    assert "[L008/spill-slot]" in out
    assert "never stored" in out


def test_cli_lint_strict_counts_warnings(tmp_path, capsys):
    path = tmp_path / "warn.s"
    path.write_text(
        "func f():\n"
        "entry:\n"
        "    mov r0, r5\n"   # physical reg read before def: WARNING
        "    ret r0\n"
    )
    assert main(["lint", str(path)]) == 0
    assert main(["lint", str(path), "--strict"]) == 1
    out = capsys.readouterr().out
    assert "[L002/def-before-use]" in out


def test_cli_lint_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.s"
    path.write_text("func f():\nentry:\n    add v1, v2\n    ret v1\n")
    assert main(["lint", str(path)]) == 1
    err = capsys.readouterr().err
    assert "[P001/parse-error]" in err
    assert "line 3" in err


def test_cli_lint_unknown_target(capsys):
    assert main(["lint", "no_such_workload"]) == 2


def test_cli_lint_json(tmp_path, capsys):
    path = tmp_path / "broken.s"
    path.write_text(
        "func f():\n"
        "entry:\n"
        "    ldslot r0, slot0\n"
        "    ret r0\n"
    )
    assert main(["lint", str(path), "--format", "json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is False
    [report] = data["targets"]
    assert report["name"].endswith("broken.s")
    assert report["errors"] == 1
    assert report["diagnostics"][0]["rule"] == "L008"


def test_cli_lint_allocated_and_k_flags(tmp_path, capsys):
    path = tmp_path / "overbudget.s"
    path.write_text(
        "func f():\n"
        "entry:\n"
        "    li r9, 1\n"
        "    ret r9\n"
    )
    assert main(["lint", str(path)]) == 0
    assert main(["lint", str(path), "--k", "8"]) == 1
    assert "[L004/reg-class]" in capsys.readouterr().out


_WARN_ONLY = (
    "func f(r0):\n"
    "entry:\n"
    "    stslot r0, slot0\n"
    "    stslot r0, slot3\n"
    "    ret r0\n"
)


def test_cli_lint_warnings_do_not_fail_by_default(tmp_path):
    path = tmp_path / "warn.s"
    path.write_text(_WARN_ONLY)
    # exit-code contract: 1 only on error severity
    assert main(["lint", str(path)]) == 0
    assert main(["lint", str(path), "--strict"]) == 1


def test_cli_lint_max_warnings_budget(tmp_path, capsys):
    path = tmp_path / "warn.s"
    path.write_text(_WARN_ONLY)
    assert main(["lint", str(path), "--max-warnings", "2"]) == 0
    assert main(["lint", str(path), "--max-warnings", "1"]) == 1
    assert "exceed the --max-warnings 1 budget" in capsys.readouterr().err


def test_cli_lint_format_json_envelope(tmp_path, capsys):
    path = tmp_path / "warn.s"
    path.write_text(_WARN_ONLY)
    assert main(["lint", str(path), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is True
    [target] = data["targets"]
    assert target["name"].endswith("warn.s")
    assert target["ok"] is True  # warnings only
    assert target["errors"] == 0 and target["warnings"] == 2
    # field names shared with the service error envelope's diagnostics
    d = target["diagnostics"][0]
    assert set(d) >= {"rule", "name", "severity", "message", "location"}


def test_cli_lint_format_json_reports_errors(tmp_path, capsys):
    path = tmp_path / "broken.s"
    path.write_text(
        "func f():\n"
        "entry:\n"
        "    ldslot r0, slot0\n"
        "    ret r0\n"
    )
    assert main(["lint", str(path), "--format", "json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is False
    assert data["targets"][0]["errors"] == 1


def test_cli_lint_disable_flag(tmp_path):
    path = tmp_path / "broken.s"
    path.write_text(
        "func f():\n"
        "entry:\n"
        "    ldslot r0, slot0\n"
        "    ret r0\n"
    )
    assert main(["lint", str(path), "--disable", "L008"]) == 0


def test_cli_bench_verify_each_pass(capsys):
    rc = main(["bench", "crc32", "--restarts", "2", "--verify-each-pass"])
    assert rc == 0
    assert "crc32" in capsys.readouterr().out
