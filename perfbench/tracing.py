"""Spans recorded around the benchmark's calls into quiverstab's modules.

A workload makes every layer call through a ``call(name, fn, *args)``
function.  ``direct`` just calls ``fn``; ``Tracer.call`` also records a
span.  Spans stay in memory until ``Tracer.write`` is called once, at the
end of the run.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field


def direct(name, fn, *args, **kwargs):
    """The untraced ``call``: no clock reads, no records."""
    return fn(*args, **kwargs)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op_id: str
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """One caller, no threads: the open op span is the parent of every call."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op_id = "setup"
        self._open: int | None = None

    def call(self, name, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append(
                Span(name, start, time.perf_counter(), self._open, self.op_id)
            )

    def begin_op(self, name: str, op_id: str) -> Span:
        self.op_id = op_id
        span = Span(name, time.perf_counter(), 0.0, None, op_id)
        self.spans.append(span)
        self._open = len(self.spans) - 1
        return span

    def end_op(self, span: Span):
        span.end = time.perf_counter()
        self._open = None
        self.op_id = "inputs"

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover.

        Children of one parent run one after another, so their durations add
        up without overlap."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.duration
        return [s.duration - c for s, c in zip(self.spans, covered)]

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "op_id": s.op_id,
                            "counts": s.counts,
                        }
                    )
                    + "\n"
                )
