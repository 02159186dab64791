"""Recorded outputs that a change must reproduce byte for byte.

``golden/readme_commands.json`` maps each README command line to its stdout,
replayed in-process.  ``golden/catalog_entries.json`` maps each buildable
catalog entry, and ``pn(1)`` to ``pn(5)``, to its quiver JSON and its
coordinate data.  To record both again after an intended output change, run
``PYTHONPATH=src python tests/test_golden.py`` from the repository root.
"""

import json
import shlex
from pathlib import Path

import pytest
from conftest import invoke

from quiverstab.catalog import entry_names, get_entry
from quiverstab.cli import main
from quiverstab.quiver import quiver_to_json

GOLDEN = Path(__file__).parent / "golden" / "readme_commands.json"
CATALOG_GOLDEN = Path(__file__).parent / "golden" / "catalog_entries.json"

# `catalog f1` and `extend` always print quiver JSON, so they take no --format.
README_COMMANDS = [
    "catalog --format json",
    "catalog f1",
    "check --example p2 --chi=-1,0,1 --taut 1:2:3 --format json",
    "check --example p2-helix --chi=-2,1,1 --taut 1:2:3 --fiber 1 --format json",
    "certify --example f1 --m 1@1,4 --m 1@2,3 --format json",
    "character --m 1@1,2 --n 3 --spiral --format json",
    "supports --example p2 --taut 1:2:3 --format json",
    "cone --example p2 --taut 1:2:3 --format json",
    "cycles --example p2-helix --max-len 3 --format json",
    "separate --example p2-helix --pairs 100 --max-len 3 --seed 0 --format json",
    "extend --example p2 --added-dim 3 --labels x0,x1,x2",
]

CATALOG_NAMES = [name for name in entry_names() if name != "pn(k)"] + [
    f"pn({k})" for k in range(1, 6)
]


def _run(command: str) -> str:
    result = invoke(main, shlex.split(command))
    assert result.exit_code == 0, result.output
    return result.stdout


def _snapshot(name: str) -> dict:
    entry = get_entry(name)
    return {
        "name": entry.name,
        "quiver": quiver_to_json(entry.quiver),
        "cox_variables": [[v, list(d)] for v, d in entry.cox_variables],
        "forbidden_vanishing": [sorted(s) for s in entry.forbidden_vanishing],
        "fiber": entry.fiber,
        "description": entry.description,
    }


@pytest.mark.parametrize("command", README_COMMANDS)
def test_readme_command_matches_golden(command):
    assert _run(command) == json.loads(GOLDEN.read_text())[command]


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_catalog_entry_matches_golden(name):
    assert _snapshot(name) == json.loads(CATALOG_GOLDEN.read_text())[name]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({c: _run(c) for c in README_COMMANDS}, indent=1) + "\n")
    CATALOG_GOLDEN.write_text(
        json.dumps({name: _snapshot(name) for name in CATALOG_NAMES}, indent=1) + "\n"
    )
