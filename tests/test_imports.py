"""What a process loads: ``import quiverstab`` loads none of the package's
modules, a command-line process loads only the modules its command runs,
nothing outside the standard library, and neither ``dataclasses`` nor the
``inspect`` it imports.  Each check runs in a fresh interpreter, since this
test process has long since imported everything."""

import functools
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import quiverstab

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden" / "readme_commands.json"
README_COMMANDS = sorted(json.loads(GOLDEN.read_text()))


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )


def _package_modules(names) -> set[str]:
    return {m for m in names if m == "quiverstab" or m.startswith("quiverstab.")}


@pytest.mark.parametrize(
    "module,loaded",
    [
        ("quiverstab", {"quiverstab"}),
        ("quiverstab.cli", {"quiverstab", "quiverstab.cli", "quiverstab.quiver"}),
    ],
)
def test_import_loads_only(module, loaded):
    proc = _python("-c", f"import sys, {module}; print(*sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert _package_modules(proc.stdout.split()) == loaded


# As `python -m quiverstab.cli` does, runpy runs cli.py as __main__, so
# quiverstab.cli itself is never imported.  `catalog --format json` loads
# neither stability nor invariants, and only the commands that build or
# evaluate a point load points.
_RUN_CLI = """\
import atexit, runpy, sys
atexit.register(lambda: print(*sys.modules, file=sys.stderr))
runpy.run_module("quiverstab.cli", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize(
    "args,modules",
    [
        (["catalog", "--format", "json"], {"catalog"}),
        (["catalog", "f1"], {"catalog"}),
        (
            ["character", "--m", "1@1,2", "--n", "3", "--spiral"],
            {"helix", "stability"},
        ),
        (["extend", "--example", "p2", "--added-dim", "1"], {"catalog", "helix"}),
        (
            ["certify", "--example", "f1", "--m", "1@1,4"],
            {"catalog", "stability"},
        ),
        (
            ["check", "--example", "p2", "--chi=-1,0,1", "--taut", "1:2:3"],
            {"catalog", "points", "stability"},
        ),
        (
            ["cycles", "--example", "p2-helix", "--max-len", "3"],
            {"catalog", "helix", "invariants", "points"},
        ),
    ],
)
def test_command_loads_only_its_modules(args, modules):
    proc = _python("-c", _RUN_CLI, *args)
    assert proc.returncode == 0, proc.stderr
    imported = proc.stderr.splitlines()[-1].split()
    assert _package_modules(imported) == {"quiverstab", "quiverstab.quiver"} | {
        f"quiverstab.{m}" for m in modules
    }


@functools.cache
def _startup_modules() -> frozenset[str]:
    """What a bare interpreter has loaded, site hooks included."""
    return frozenset(_python("-c", "import sys; print(*sys.modules)").stdout.split())


def _outside_stdlib(names) -> set[str]:
    """The loaded modules that are neither quiverstab's, nor the standard
    library's, nor loaded by a bare interpreter's start-up."""
    startup = _startup_modules()
    return {
        m
        for m in names
        if m.partition(".")[0] not in sys.stdlib_module_names | {"quiverstab"}
        and m not in startup
    }


@functools.cache
def _cli_import_modules() -> tuple[str, ...]:
    proc = _python("-c", "import sys, quiverstab.cli; print(*sys.modules)")
    assert proc.returncode == 0, proc.stderr
    return tuple(proc.stdout.split())


@functools.cache
def _readme_command_modules(command: str) -> tuple[str, ...]:
    proc = _python("-c", _RUN_CLI, *shlex.split(command))
    assert proc.returncode == 0, proc.stderr
    return tuple(proc.stderr.splitlines()[-1].split())


def test_cli_import_loads_only_the_standard_library():
    assert _outside_stdlib(_cli_import_modules()) == set()


@pytest.mark.parametrize("command", README_COMMANDS)
def test_readme_command_loads_only_the_standard_library(command):
    assert _outside_stdlib(_readme_command_modules(command)) == set()


# The core types are plain classes: generating them with dataclasses costs
# every process its import, and inspect's, before any command runs.
_SLOW_TO_IMPORT = {"dataclasses", "inspect"}


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    assert _SLOW_TO_IMPORT & set(_cli_import_modules()) == set()


@pytest.mark.parametrize("command", README_COMMANDS)
def test_readme_command_loads_neither_dataclasses_nor_inspect(command):
    assert _SLOW_TO_IMPORT & set(_readme_command_modules(command)) == set()


def test_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError):
        quiverstab.no_such_name
