"""In-memory spans for the benchmark's traced run.

Spans are recorded by the benchmark around each call it makes into a
layer of the program; nothing under ``src/`` is instrumented.  A span is
``[name, start, end, parent, frame, track]``: ``perf_counter`` seconds,
the index of the enclosing span (``-1`` at top level), the id of the
frame it belongs to, and the Chrome-trace thread row it is drawn on.
The untraced run uses :data:`NULL_TRACER`, which records nothing, so
both runs execute the same benchmark code.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

_NULL_SPAN = contextlib.nullcontext()


class NullTracer:
    """Records nothing; the end-to-end run's tracer."""

    enabled = False

    def span(self, name, frame=None, track=1):
        return _NULL_SPAN

    def add(self, name, start, end, frame=None, track=1):
        pass


class Tracer:
    """Keeps every span in memory until the run ends."""

    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name, frame=None, track=1):
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent, frame, track]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def add(self, name, start, end, frame=None, track=1):
        """Record a span measured elsewhere (e.g. one service request)."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent, frame, track])

    def self_times(self) -> list[float]:
        """Each span's duration minus the union of its children's."""
        children = defaultdict(list)
        for record in self.spans:
            if record[3] >= 0:
                children[record[3]].append((record[1], record[2]))
        out = []
        for index, (_, start, end, *_rest) in enumerate(self.spans):
            covered = 0.0
            reach = start
            for child_start, child_end in sorted(children.get(index, ())):
                child_start = max(child_start, reach)
                if child_end > child_start:
                    covered += child_end - child_start
                    reach = child_end
            out.append((end - start) - covered)
        return out

    def layer_table(self) -> list[tuple[str, int, float, float]]:
        """``(span name, count, self ms total, self ms per span)`` rows."""
        totals: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for record, own in zip(self.spans, self.self_times()):
            totals[record[0]][0] += 1
            totals[record[0]][1] += own * 1e3
        return [
            (name, count, total, total / count)
            for name, (count, total) in sorted(totals.items())
        ]


def write_chrome_trace(path, tracers, metadata: dict) -> None:
    """Chrome trace-event JSON (viewable in Perfetto), one pid per tracer."""
    origin = min(
        (record[1] for tracer in tracers for record in tracer.spans), default=0.0
    )
    events = [
        {
            "name": name,
            "cat": name.split(".")[0],
            "ph": "X",
            "ts": (start - origin) * 1e6,
            "dur": (end - start) * 1e6,
            "pid": pid,
            "tid": track,
            "args": {"frame": frame, "parent": parent},
        }
        for pid, tracer in enumerate(tracers, start=1)
        for name, start, end, parent, frame, track in tracer.spans
    ]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {"traceEvents": events, "displayTimeUnit": "ms", "otherData": metadata},
            handle,
        )


NULL_TRACER = NullTracer()
