"""In-memory span recorder for the traced run.

A span is one call into a layer, recorded from the benchmark's side of
the boundary: name, start, end, parent span and operation id.  Spans stay
in memory while the run is timed and are written out once at the end.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self):
        # [span id, operation id, name, start ns, end ns, parent id]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self.counts: dict[str, float] = {}

    @contextmanager
    def operation(self, name: str = "op"):
        """Root span of one operation; nested spans share its id."""
        self._op += 1
        with self.span(name):
            yield

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = [len(self.spans), self._op, name, time.perf_counter_ns(), 0, parent]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield
        finally:
            record[4] = time.perf_counter_ns()
            self._stack.pop()

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def self_times(self) -> dict[str, dict[int, float]]:
        """Self time in seconds per layer name, summed within each operation.

        A span's self time is its duration minus the durations of its
        children, which run inside it one after another.
        """
        child_ns = [0] * len(self.spans)
        for sid, _, _, start, end, parent in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out: dict[str, dict[int, float]] = {}
        for sid, op, name, start, end, _ in self.spans:
            per_op = out.setdefault(name, {})
            per_op[op] = per_op.get(op, 0.0) + (end - start - child_ns[sid]) / 1e9
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, op, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": sid, "op": op, "name": name,
                                     "start_ns": start, "end_ns": end,
                                     "parent": parent}) + "\n")


class NullTracer:
    """Takes the same calls as Tracer and records nothing.  A traced round
    run with it costs what the round costs without spans, so the two
    differ by the cost of recording them."""

    _none = nullcontext()

    def operation(self, name: str = "op"):
        return self._none

    def span(self, name: str):
        return self._none

    def count(self, name: str, value: float = 1) -> None:
        pass
