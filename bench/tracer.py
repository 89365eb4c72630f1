"""Span recording from outside the package.

A Tracer replaces public functions at the module binding each caller looks
them up through (``packdim.experiment.dim_field`` is what run_experiment
calls), records one span per call, and puts every original back on
``restore``.  Spans are kept in memory as (name, start, end, parent, counts)
and written out when the run ends.  A binding that no longer exists is
listed in ``missing`` instead of failing the run.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, counts]
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.missing: list[str] = []  # bindings that no longer exist
        self.wanted: set[str] = set()  # span names asked for
        self._present: set[str] = set()

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, module, attr: str, name: str, counter=None) -> None:
        """Route calls of ``module.attr`` through a span named ``name``.
        ``counter(args, kwargs, result)`` returns a dict of counts (or
        labels) attached to the span; it runs after the span is closed."""
        self.wanted.add(name)
        fn = getattr(module, attr, None)
        if not callable(fn):
            self.missing.append(f"{module.__name__}.{attr}")
            return
        self._present.add(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if counter is not None:
                tracer.spans[idx][4] = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        setattr(module, attr, traced)
        self._patches.append((module, attr, fn))

    @property
    def gone(self) -> set[str]:
        """Span names none of whose bindings exist any more."""
        return self.wanted - self._present

    def restore(self) -> None:
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "counts"],
                       "spans": self.spans, "missing": self.missing}, fh)


def _union_length(intervals) -> float:
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def aggregate(spans) -> dict:
    """Per span name: busy time ``s`` (union of its spans), self time
    ``self_s`` (span time not covered by child spans), ``calls``, and the
    summed counts under their own keys."""
    child_time = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    intervals = defaultdict(list)
    out: dict[str, dict] = {}
    for idx, (name, start, end, parent, counts) in enumerate(spans):
        intervals[name].append((start, end))
        row = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        row["self_s"] += (end - start) - child_time[idx]
        row["calls"] += 1
        for key, value in (counts or {}).items():
            row[key] = row.get(key, 0) + value
    for name, row in out.items():
        row["s"] = _union_length(intervals[name])
    return out
