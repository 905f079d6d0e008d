"""Unit tests for the shared diagnostic core (:mod:`repro.diagnostics`)."""

import pytest

from repro.diagnostics import (
    Diagnostic,
    DiagnosticReport,
    LintError,
    Location,
    Severity,
)


def _diag(rule="L002", name="def-before-use", severity=Severity.ERROR,
          message="register v2 may be used before it is defined",
          location=None, hint=None):
    return Diagnostic(rule=rule, name=name, severity=severity,
                      message=message,
                      location=location or Location(function="f",
                                                    block="join",
                                                    instr_index=0),
                      hint=hint)


# ----------------------------------------------------------------------
# Severity
# ----------------------------------------------------------------------

def test_severity_is_ordered():
    assert Severity.NOTE < Severity.WARNING < Severity.ERROR
    assert str(Severity.ERROR) == "error"
    assert str(Severity.WARNING) == "warning"
    assert str(Severity.NOTE) == "note"


# ----------------------------------------------------------------------
# Location
# ----------------------------------------------------------------------

def test_location_str_function_block_index():
    assert str(Location(function="f", block="join", instr_index=0)) \
        == "f/join#0"


def test_location_str_file_line():
    assert str(Location(file="prog.s", line=3)) == "prog.s:line 3"


def test_location_str_empty():
    assert str(Location()) == "<unknown>"


def test_location_to_dict_drops_nulls():
    d = Location(function="f", instr_index=2).to_dict()
    assert d == {"function": "f", "instr_index": 2}


# ----------------------------------------------------------------------
# Diagnostic
# ----------------------------------------------------------------------

def test_diagnostic_render():
    assert _diag().render() == (
        "f/join#0: error: register v2 may be used before it is defined "
        "[L002/def-before-use]"
    )


def test_diagnostic_render_with_hint():
    out = _diag(hint="define it on every path").render()
    assert out.endswith("\n    hint: define it on every path")


def test_diagnostic_to_dict():
    d = _diag(hint="fix it").to_dict()
    assert d["rule"] == "L002"
    assert d["severity"] == "error"
    assert d["hint"] == "fix it"
    assert d["location"]["block"] == "join"


# ----------------------------------------------------------------------
# DiagnosticReport
# ----------------------------------------------------------------------

def _report():
    r = DiagnosticReport()
    r.add(_diag())
    r.add(_diag(rule="L008", name="spill-slot", severity=Severity.WARNING,
                message="spill slot 0 may be uninitialized"))
    r.add(_diag(rule="L009", name="dead-block", severity=Severity.NOTE,
                message="block 'dead' is unreachable"))
    return r


def test_report_filters():
    r = _report()
    assert len(r) == 3
    assert len(r.errors) == 1
    assert len(r.warnings) == 1
    assert len(r.at_least(Severity.WARNING)) == 2
    assert not r.ok
    assert r.max_severity() == Severity.ERROR


def test_report_by_rule_matches_id_and_name():
    r = _report()
    assert len(r.by_rule("L008")) == 1
    assert len(r.by_rule("spill-slot")) == 1
    assert not r.by_rule("L999")


def test_empty_report_is_ok():
    r = DiagnosticReport()
    assert r.ok
    assert r.max_severity() is None
    assert "0 error(s), 0 warning(s), 0 note(s)" in r.render_text()


def test_report_render_text_tally():
    text = _report().render_text()
    assert text.count("\n") == 3  # three findings + tally
    assert text.endswith("1 error(s), 1 warning(s), 1 note(s)")


def test_report_extend_and_iter():
    r = DiagnosticReport()
    r.extend([_diag(), _diag(rule="L003", name="vreg-mixing")])
    assert [d.rule for d in r] == ["L002", "L003"]


# ----------------------------------------------------------------------
# LintError
# ----------------------------------------------------------------------

def test_lint_error_is_a_value_error():
    assert issubclass(LintError, ValueError)


def test_lint_error_embeds_the_report():
    err = LintError("f: illegal input", _report())
    assert "f: illegal input" in str(err)
    assert "may be used before" in str(err)  # report text embedded
    assert len(err.diagnostics) == 3
    assert err.report.errors


def test_lint_error_without_report():
    err = LintError("plain failure")
    assert str(err) == "plain failure"
    assert err.report.ok


def test_lint_error_raisable_as_value_error():
    with pytest.raises(ValueError, match="illegal"):
        raise LintError("illegal input", _report())
