"""Every ``repro`` module is reached from something users run.

A module that no command, benchmark or example imports is code that no
result depends on, so it is deleted (or, when tests still need it, moved
into the test module that uses it).  A newly unreached module fails here.

Imports are followed statically with :mod:`ast` from the roots below.
``from pkg import name`` resolves through the package ``__init__``
re-exports to the module that defines ``name``; importing a package does
not by itself reach the submodules its ``__init__`` re-exports.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"

def _module_files():
    """Every ``repro`` module name mapped to its source file."""
    out = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        out[".".join(parts)] = path
    return out


FILES = _module_files()
PACKAGES = {name for name, path in FILES.items() if path.name == "__init__.py"}


def _imports(path):
    """``(module, names)`` for every import statement in ``path``;
    ``names`` is empty for ``import module``.  The package uses absolute
    imports only, so a relative one resolves to nothing and its target
    shows up here as unreached."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, ()
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module, tuple(alias.name for alias in node.names)


def _defining_module(package, name):
    """The module that defines ``name`` re-exported by ``package``, or
    ``None`` when the ``__init__`` defines it itself."""
    for base, names in _imports(FILES[package]):
        if name in names:
            found = _targets(base, (name,))
            return found[0] if found else None
    return None


def _targets(base, names):
    """The modules an ``import`` of ``names`` from ``base`` reaches."""
    if base not in FILES:
        return []
    if not names:
        return [] if base in PACKAGES else [base]
    out = []
    for name in names:
        sub = f"{base}.{name}"
        if sub in FILES:
            if sub not in PACKAGES:
                out.append(sub)
        elif base in PACKAGES:
            origin = _defining_module(base, name)
            if origin is not None:
                out.append(origin)
        else:
            out.append(base)
    return out


ROOTS = ["repro.__main__", "repro.cli"]
SCRIPT_DIRS = ("perfbench", "benchmarks", "examples")


def reached_modules():
    """The root modules and every non-package ``repro`` module the roots
    and the top-level scripts of ``SCRIPT_DIRS`` import, transitively."""
    seen = set(ROOTS)
    work = [FILES[name] for name in ROOTS]
    for directory in SCRIPT_DIRS:
        work += sorted((REPO / directory).glob("*.py"))
    while work:
        for base, names in _imports(work.pop()):
            for target in _targets(base, names):
                if target not in seen:
                    seen.add(target)
                    work.append(FILES[target])
    return seen


def test_every_module_is_reached_or_kept():
    assert sorted(set(FILES) - PACKAGES - reached_modules()) == []
