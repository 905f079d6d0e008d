"""The ``repro serve`` options.

Every serve flag is one more configuration the service must be tested
and operated under, so the set is pinned here, as the ``REPRO_*``
switches are in ``test_env_switches.py``: a new flag has to update this
test and be documented in ``docs/service.md``.
"""

import argparse
import re
from pathlib import Path

from repro.cli import build_parser

OPTIONS = {"--host", "--port", "--store", "--cache-bytes", "--hot-entries",
           "--queue-limit", "--timeout", "--telemetry", "--ready-file",
           "--allow-debug", "--verbose", "--jobs"}

DOC = Path(__file__).resolve().parents[1] / "docs" / "service.md"


def test_serve_options_are_pinned_and_documented():
    [commands] = [action for action in build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)]
    found = {option for action in commands.choices["serve"]._actions
             for option in action.option_strings
             if option.startswith("--") and option != "--help"}
    assert found == OPTIONS
    documented = set(re.findall(r"--[a-z][a-z-]*", DOC.read_text()))
    assert OPTIONS <= documented
