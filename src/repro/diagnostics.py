"""Shared diagnostic objects: severities, locations, findings, reports.

This is the bottom layer of the static-analysis stack — pure data plus
a text renderer and JSON-friendly dicts, with no IR dependencies — so
every producer of user-facing findings (the :mod:`repro.lint` rules, the
assembly parser, the encoder's preconditions) can emit the same objects
and every consumer (CLI, tests, pass-pipeline instrumentation) can format
them uniformly.

A :class:`Diagnostic` is one finding: a stable rule id (``L002``), a
human-readable rule name (``def-before-use``), a severity, a location
inside a function (or a source line for parser errors), a message, and an
optional fix-it hint.  A :class:`DiagnosticReport` is an ordered
collection with filtering and rendering helpers.  :class:`LintError` is
the strict-mode escape hatch: a ``ValueError`` that carries the report
that triggered it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional

__all__ = [
    "Severity",
    "Location",
    "Diagnostic",
    "DiagnosticReport",
    "LintError",
    "FormatError",
    "check_format_version",
]


class Severity(enum.IntEnum):
    """Diagnostic severity, ordered so comparisons mean "at least"."""

    NOTE = 10
    WARNING = 20
    ERROR = 30

    def __str__(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Location:
    """Where a finding points.

    All fields are optional: a parser diagnostic has ``file``/``line``, a
    lint diagnostic has ``function``/``block`` and usually
    ``instr_index`` (position within the block) plus the instruction
    ``uid`` for programmatic lookup.
    """

    function: Optional[str] = None
    block: Optional[str] = None
    instr_index: Optional[int] = None
    uid: Optional[int] = None
    file: Optional[str] = None
    line: Optional[int] = None

    def __str__(self) -> str:
        parts: List[str] = []
        if self.file is not None:
            parts.append(self.file)
        if self.line is not None:
            parts.append(f"line {self.line}")
        where = ""
        if self.function is not None:
            where = self.function
        if self.block is not None:
            where += f"/{self.block}" if where else self.block
        if self.instr_index is not None:
            where += f"#{self.instr_index}"
        if where:
            parts.append(where)
        return ":".join(parts) if parts else "<unknown>"

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly dict with null fields dropped."""
        return {
            k: v for k, v in (
                ("function", self.function),
                ("block", self.block),
                ("instr_index", self.instr_index),
                ("uid", self.uid),
                ("file", self.file),
                ("line", self.line),
            ) if v is not None
        }


@dataclass(frozen=True)
class Diagnostic:
    """One finding of one rule."""

    rule: str                 # stable id, e.g. "L002"
    name: str                 # readable slug, e.g. "def-before-use"
    severity: Severity
    message: str
    location: Location = field(default_factory=Location)
    hint: Optional[str] = None

    def render(self) -> str:
        """One-per-line text form: ``loc: error: message [L002/name]``."""
        out = f"{self.location}: {self.severity}: {self.message} " \
              f"[{self.rule}/{self.name}]"
        if self.hint:
            out += f"\n    hint: {self.hint}"
        return out

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly dict; the hint is included only when set."""
        d: Dict[str, object] = {
            "rule": self.rule,
            "name": self.name,
            "severity": str(self.severity),
            "message": self.message,
            "location": self.location.to_dict(),
        }
        if self.hint:
            d["hint"] = self.hint
        return d


@dataclass
class DiagnosticReport:
    """An ordered collection of diagnostics with filter/render helpers."""

    diagnostics: List[Diagnostic] = field(default_factory=list)

    def add(self, diag: Diagnostic) -> None:
        """Append one finding."""
        self.diagnostics.append(diag)

    def extend(self, diags: Iterable[Diagnostic]) -> None:
        """Append every finding of ``diags`` in order."""
        self.diagnostics.extend(diags)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    # ------------------------------------------------------------------
    # filtering
    # ------------------------------------------------------------------

    def at_least(self, severity: Severity) -> List[Diagnostic]:
        """Diagnostics at or above ``severity``."""
        return [d for d in self.diagnostics if d.severity >= severity]

    @property
    def errors(self) -> List[Diagnostic]:
        return self.at_least(Severity.ERROR)

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == Severity.WARNING]

    @property
    def ok(self) -> bool:
        """No error-severity findings."""
        return not self.errors

    def by_rule(self, rule: str) -> List[Diagnostic]:
        """Findings of one rule, matched by id or name."""
        return [d for d in self.diagnostics if rule in (d.rule, d.name)]

    def max_severity(self) -> Optional[Severity]:
        """Highest severity present, or None for an empty report."""
        if not self.diagnostics:
            return None
        return max(d.severity for d in self.diagnostics)

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------

    def render_text(self) -> str:
        """Human-readable listing followed by a one-line tally."""
        lines = [d.render() for d in self.diagnostics]
        n_err = len(self.errors)
        n_warn = len(self.warnings)
        lines.append(f"{n_err} error(s), {n_warn} warning(s), "
                     f"{len(self.diagnostics) - n_err - n_warn} note(s)")
        return "\n".join(lines)


class LintError(ValueError):
    """A diagnostic report escalated to an exception (strict mode).

    Subclasses ``ValueError`` so call sites that historically raised
    ``ValueError`` (the encoder preconditions) keep their contract.
    """

    def __init__(self, message: str,
                 report: Optional[DiagnosticReport] = None) -> None:
        self.report = report or DiagnosticReport()
        if self.report.diagnostics:
            message = message + "\n" + self.report.render_text()
        super().__init__(message)

    @property
    def diagnostics(self) -> List[Diagnostic]:
        return self.report.diagnostics


class FormatError(LintError):
    """A versioned JSON document failed envelope validation.

    Raised by :func:`check_format_version` for service protocol messages
    (:mod:`repro.service.protocol`).  Subclasses
    :class:`LintError` so existing ``ValueError`` handlers keep working
    while new callers can read the structured report.
    """


def check_format_version(data: object,
                         supported: Iterable[int] = (1,),
                         version_field: str = "format",
                         file: Optional[str] = None) -> int:
    """Validate the envelope of a versioned JSON document.

    Checks, in order: ``data`` is a JSON object; its ``version_field``
    holds one of the ``supported`` integers.  Returns the version on
    success and raises :class:`FormatError` (rules F001 and F003)
    otherwise — loaders never surface a raw ``KeyError``/``TypeError``
    for a document written by a newer schema.
    """
    location = Location(file=file)

    def fail(rule: str, name: str, message: str, hint: str) -> "FormatError":
        report = DiagnosticReport([Diagnostic(
            rule=rule, name=name, severity=Severity.ERROR,
            message=message, location=location, hint=hint,
        )])
        return FormatError(message, report)

    if not isinstance(data, dict):
        raise fail("F001", "not-a-document",
                   f"expected a JSON object, got {type(data).__name__}",
                   "the file is not a persisted document at all")
    version = data.get(version_field)
    supported = tuple(supported)
    if version not in supported:
        raise fail("F003", "unsupported-format-version",
                   f"unsupported {version_field} version {version!r} "
                   f"(supported: {', '.join(map(str, supported))})",
                   "the file was written by a different schema version; "
                   "regenerate it or upgrade")
    return version  # type: ignore[return-value]
