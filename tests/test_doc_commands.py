"""Every ``python -m repro ...`` line in README.md and docs/*.md parses,
and every documented ``repro`` import resolves.

Each documented command line goes through :func:`repro.cli.build_parser`
without running, so a renamed command or a deleted flag fails here
instead of in a reader's shell.  Inline code spans end at their closing
backtick (which may sit on the next line); code-block lines drop their
``#`` comment, a trailing ``&`` and ``\\`` continuations.  A bare
``python -m repro`` names the CLI and is skipped.

Each line that starts with ``from repro... import`` or ``import repro``
is executed as an import statement (a parenthesised name list runs to its
closing parenthesis), so a deleted module or name fails here too.
"""

import re
from pathlib import Path

import pytest

from repro.cli import build_parser

REPO = Path(__file__).resolve().parents[1]
DOCS = [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]
PREFIX = "python -m repro"


def _command_lines():
    """``(file:line, argv)`` for every documented invocation."""
    for path in DOCS:
        lines = path.read_text().splitlines()
        for no, line in enumerate(lines, 1):
            for match in re.finditer(re.escape(PREFIX), line):
                text = line[match.end():]
                follow = no  # index of the next line to join
                if line[:match.start()].count("`") % 2:
                    # inline code span: up to the closing backtick
                    while "`" not in text:
                        text += " " + lines[follow]
                        follow += 1
                    text = text[:text.index("`")]
                else:
                    text = text.split(" #")[0]
                    while text.rstrip().endswith("\\"):
                        text = text.rstrip()[:-1] + " " + lines[follow]
                        follow += 1
                    text = text.strip().rstrip("&")
                argv = text.split()
                if argv:
                    yield f"{path.relative_to(REPO)}:{no}:{argv[0]}", argv


COMMANDS = list(_command_lines())


def test_commands_found():
    where = {at.split(":")[0] for at, _ in COMMANDS}
    assert {"README.md", "docs/lint_rules.md", "docs/service.md"} <= where
    assert len(COMMANDS) >= 30


@pytest.mark.parametrize("argv", [argv for _, argv in COMMANDS],
                         ids=[at for at, _ in COMMANDS])
def test_documented_command_parses(argv):
    try:
        build_parser().parse_args(argv)
    except SystemExit as exc:
        pytest.fail(f"`{PREFIX} {' '.join(argv)}` does not parse "
                    f"(exit {exc.code})")


IMPORT = re.compile(r"^\s*(from repro[\w.]* import |import repro\b)")


def _import_lines():
    """``(file:line, statement)`` for every documented ``repro`` import."""
    for path in DOCS:
        lines = path.read_text().splitlines()
        for no, line in enumerate(lines, 1):
            if not IMPORT.match(line):
                continue
            stmt, follow = line, no
            while stmt.count("(") > stmt.count(")"):
                stmt += "\n" + lines[follow]
                follow += 1
            yield f"{path.relative_to(REPO)}:{no}", stmt.strip()


IMPORTS = list(_import_lines())


def test_imports_found():
    where = {at.split(":")[0] for at, _ in IMPORTS}
    assert {"README.md", "docs/usage.md"} <= where
    assert len(IMPORTS) >= 18


@pytest.mark.parametrize("stmt", [stmt for _, stmt in IMPORTS],
                         ids=[at for at, _ in IMPORTS])
def test_documented_import_resolves(stmt):
    exec(stmt, {})
