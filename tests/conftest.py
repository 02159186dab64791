"""In-process runs of the command line, for the CLI and golden tests."""

import io
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from types import SimpleNamespace

import pytest


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
