"""In-memory spans recorded around the benchmark's own calls into conhist.

A span is ``(name, start, end, parent, op)``: times from ``time.perf_counter``,
``parent`` the index of the enclosing span (or -1) and ``op`` the id of the
operation the span belongs to.  Nothing is written until the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from typing import Callable, NamedTuple


class Tracer:
    """Collects spans; nesting follows the ``with`` blocks that open them."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, str]] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, op: str = ""):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        if not op and parent >= 0:
            op = self.spans[parent][4]
        self.spans.append((name, time.perf_counter(), 0.0, parent, op))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            name_, start, _, parent_, op_ = self.spans[index]
            self.spans[index] = (name_, start, time.perf_counter(), parent_, op_)

    def self_times(self) -> dict[str, float]:
        """Per span name: duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def to_json(self) -> list[dict]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent, "op": op}
            for name, start, end, parent, op in self.spans
        ]


class Op(NamedTuple):
    """One timed operation of a pass: ``run(tracer)`` returns its output;
    ``tracer`` is None in untraced passes.  ``span`` names the traced span
    around the whole call."""

    label: str
    span: str
    run: Callable


def maybe_span(tracer: Tracer | None, name: str):
    """A span when tracing, else a no-op context."""
    return tracer.span(name) if tracer is not None else nullcontext()
