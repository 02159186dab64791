"""In-process runs of the command line, for the CLI and golden tests; the
all-paths walk the oracles of the catalog and cycle tests are built on; a
reachability oracle over the arrow list; a support oracle over node
frozensets; and the all-zero point and weight matrix."""

import io
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from types import SimpleNamespace

import pytest

from quiverstab.points import RepresentationPoint
from quiverstab.quiver import Arrow, Path, Quiver, QuiverError
from quiverstab.stability import SupportFamily, WeightMatrix


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


def bfs_has_path(q, src, dst):
    """Oracle: a breadth-first search over the arrow list on every call."""
    frontier = [a.target for a in q.arrows if a.source == src]
    seen: set[int] = set()
    while frontier:
        v = frontier.pop()
        if v == dst:
            return True
        if v in seen:
            continue
        seen.add(v)
        frontier.extend(a.target for a in q.arrows if a.source == v)
    return False


def supports_by_subsets(q: Quiver, p: RepresentationPoint) -> SupportFamily:
    """Oracle: every one of the 2^n node subsets, built as a frozenset, is a
    support when no nonzero arrow has its source in it and its target
    outside."""
    nonzero = [a for a in q.arrows if p.value(a.id) != 0]
    supports = []
    for bits in range(1 << q.n):
        s = frozenset(i + 1 for i in range(q.n) if bits >> i & 1)
        if all(not (a.source in s and a.target not in s) for a in nonzero):
            supports.append(s)
    return SupportFamily(q.n, frozenset(supports))


def zero_point(q: Quiver) -> RepresentationPoint:
    """The point of ``q`` with every arrow value zero."""
    return RepresentationPoint.for_quiver(q, dict.fromkeys([a.id for a in q.arrows], 0))


def zero_weights(n: int) -> WeightMatrix:
    """The n x n weight matrix with every entry zero."""
    return WeightMatrix.from_entries(n, {})
