"""In-process runs of the command line, for the CLI and golden tests, and
the all-paths walk the oracles of the quiver and catalog tests are built on."""

import io
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from types import SimpleNamespace

import pytest

from quiverstab.quiver import Arrow, Path, Quiver, QuiverError


@dataclass
class Result:
    """What one run of the command line did.  ``output`` holds stdout and
    stderr in the order written; ``exception`` is the ``SystemExit`` of a
    non-zero exit, any other exception the run raised, or None."""

    exit_code: int
    output: str
    stdout: str
    exception: BaseException | None


class _Tee(io.TextIOBase):
    def __init__(self, *targets):
        self.targets = targets

    def write(self, text):
        for target in self.targets:
            target.write(text)
        return len(text)


def invoke(main, args) -> Result:
    """Run ``main(args)`` with stdout and stderr captured."""
    output, stdout = io.StringIO(), io.StringIO()
    exception = None
    with redirect_stdout(_Tee(stdout, output)), redirect_stderr(output):
        try:
            main(list(args))
            exit_code = 0
        except SystemExit as exc:
            exit_code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            exception = exc if exit_code else None
        except Exception as exc:
            exit_code, exception = 1, exc
    return Result(exit_code, output.getvalue(), stdout.getvalue(), exception)


@pytest.fixture
def runner():
    return SimpleNamespace(invoke=invoke)


def enumerate_paths(q: Quiver, src: int, dst: int, max_len: int) -> list[Path]:
    """All paths from src to dst of length <= max_len.

    Output is ordered lexicographically by arrow-id sequence, with shorter
    prefixes first.
    """
    for node in (src, dst):
        if not (1 <= node <= q.n):
            raise QuiverError(f"node {node} out of range 1..{q.n}")
    if max_len < 0:
        raise QuiverError("max_len must be non-negative")
    out: list[Path] = []

    def walk(at: int, arrows: tuple[Arrow, ...]):
        if at == dst:
            out.append(Path(src, arrows))
        if len(arrows) == max_len:
            return
        for a in q.outgoing(at):
            walk(a.target, arrows + (a,))

    walk(src, ())
    return out
