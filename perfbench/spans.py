"""Spans around each call the benchmark makes into a layer of the package.

A span is (name, start, end, parent span index, op id).  Each op opens one
span named "op"; every layer call inside it is a child span.  Spans are
kept in memory and written out as JSON lines when the run ends.  Each op
also carries the factor that scales its times to the reference speed of
``speed.py``; summed durations are scaled by it, the written spans are not.
"""
from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter


class NullTracer:
    """Tracing off: a layer call is a plain call."""

    def begin_op(self, op_id: int, scale: float) -> None:
        pass

    def end_op(self) -> None:
        pass

    def call(self, layer: str, fn, *args):
        return fn(*args)


class Tracer:
    def __init__(self) -> None:
        # tuples, not lists: the garbage collector stops tracking tuples of
        # numbers and strings, so a long trace does not slow later collections
        self.spans: list[tuple | None] = []
        self._op_span = None
        self._op_id = None
        self._op_start = 0.0
        self.scales: dict[int, float] = {}

    def begin_op(self, op_id: int, scale: float) -> None:
        self._op_id = op_id
        self.scales[op_id] = scale
        self._op_span = len(self.spans)
        self.spans.append(None)
        self._op_start = perf_counter()

    def end_op(self) -> None:
        self.spans[self._op_span] = ("op", self._op_start, perf_counter(), None, self._op_id)
        self._op_span = None

    def call(self, layer: str, fn, *args):
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append((layer, start, perf_counter(), self._op_span, self._op_id))

    def busy_and_self(self) -> tuple[dict, dict]:
        """Per span name: total scaled duration, and that minus child spans."""
        busy: dict[str, float] = {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, op_id in self.spans:
            length = (end - start) * self.scales[op_id]
            busy[name] = busy.get(name, 0.0) + length
            if parent is not None:
                child_time[parent] += length
        own: dict[str, float] = {}
        for index, (name, start, end, _, op_id) in enumerate(self.spans):
            length = (end - start) * self.scales[op_id]
            own[name] = own.get(name, 0.0) + length - child_time[index]
        return busy, own

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for index, (name, start, end, parent, op_id) in enumerate(self.spans):
                out.write(json.dumps({"id": index, "name": name, "start": start,
                                      "end": end, "parent": parent, "op": op_id,
                                      "scale": self.scales[op_id]}) + "\n")
