"""The ``REPRO_*`` environment switches the package reads.

Every switch doubles the configurations that tests and benchmarks must
cover, so the set is pinned here: a new switch has to update this test
and be documented under ``docs/``.
"""

import re
from pathlib import Path

import repro

SWITCHES = {"REPRO_SERVICE_STORE"}

DOCS = Path(__file__).resolve().parents[1] / "docs"


def test_env_switches_are_pinned_and_documented():
    package = Path(repro.__file__).resolve().parent
    found = {name for path in package.rglob("*.py")
             for name in re.findall(r"REPRO_[A-Z_]+", path.read_text())}
    assert found == SWITCHES
    documented = {name for path in DOCS.glob("*.md")
                  for name in re.findall(r"REPRO_[A-Z_]+", path.read_text())}
    assert SWITCHES <= documented
