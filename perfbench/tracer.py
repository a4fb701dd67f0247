"""In-memory spans and counts recorded at module boundaries.

A span is (id, name, start, end, parent, op): ``parent`` is the id of the
span that caused it and ``op`` the benchmark operation it belongs to. Spans
nest per thread; a span opened in a worker thread names its parent
explicitly. Nothing is written until the benchmark asks for the record.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.origin = time.perf_counter()
        self.spans = []
        self.counts = defaultdict(lambda: defaultdict(int))
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._op_of = {}
        self._local = threading.local()

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name, op=None, parent=None):
        """Time the block as span ``name``; yields the span id.

        The parent defaults to the innermost open span of this thread and
        the operation to the parent's.
        """
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        with self._lock:
            span_id = next(self._ids)
            if op is None:
                op = self._op_of[parent]
            self._op_of[span_id] = op
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(
                    {"id": span_id, "name": name, "start": start - self.origin,
                     "end": end - self.origin, "parent": parent, "op": op}
                )

    def count(self, name, value):
        """Add ``value`` to counter ``name`` of the innermost span's operation."""
        op = self._op_of[self._stack()[-1]]
        with self._lock:
            self.counts[op][name] += int(value)

    def record(self) -> dict:
        return {
            "spans": sorted(self.spans, key=lambda s: s["id"]),
            "counts": {str(op): dict(c) for op, c in self.counts.items()},
        }


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the time its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        children[span["parent"]].append((span["start"], span["end"]))
    return {
        span["id"]: span["end"] - span["start"] - covered(children[span["id"]])
        for span in spans
    }
