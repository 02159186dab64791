"""Every README command, replayed in-process, prints exactly the recorded JSON.

``golden/readme_commands.json`` maps each command line to its stdout.  To
record it again after an intended output change, run
``PYTHONPATH=src python tests/test_golden.py`` from the repository root.
"""

import json
import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner

from quiverstab.cli import main

GOLDEN = Path(__file__).parent / "golden" / "readme_commands.json"

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


def _run(command: str) -> str:
    result = CliRunner().invoke(main, shlex.split(command))
    assert result.exit_code == 0, result.output
    return result.stdout


@pytest.mark.parametrize("command", README_COMMANDS)
def test_readme_command_matches_golden(command):
    assert _run(command) == json.loads(GOLDEN.read_text())[command]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({c: _run(c) for c in README_COMMANDS}, indent=1) + "\n")
