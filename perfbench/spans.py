"""In-memory span recorder for the benchmark's traced runs.

A span is ``[name, start, end, parent]``: ``parent`` is the index of the span
that was open when this one started, or -1 for a root. Spans are recorded by
wrapping a function where its caller looks it up (a module global or a class
attribute), so the package itself is not edited. Nothing is written while a
run is measured; the caller dumps ``spans`` once the run has ended.
"""

from __future__ import annotations

import functools
import inspect
import time
from typing import Any, Callable, Optional

#: ``observe(tracer, args, result)`` adds counts after a wrapped call returns.
Observer = Callable[["Tracer", tuple, Any], None]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def add(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name: str, fn: Callable, observe: Optional[Observer] = None) -> Callable:
        """Return ``fn`` recording one span per call; the call always goes through."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def patch(self, owner: object, attr: str, name: str, observe: Optional[Observer] = None) -> None:
        """Replace a module global or class attribute by its traced wrapper."""
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, classmethod):
            replacement: object = classmethod(self.wrap(name, raw.__func__, observe))
        else:
            replacement = self.wrap(name, raw, observe)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Put back every attribute replaced by ``patch``, newest first."""
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def durations(self, name: str) -> list[float]:
        """Durations of the spans called ``name``, in call order."""
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def by_name(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``busy_s`` (inclusive) and ``self_s``.

        Self time is a span's duration minus the time its direct children
        cover; children never overlap because the run is single-threaded.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            entry = stats.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["busy_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
        return stats

    def breakdown(self, parent_name: str) -> dict[str, float]:
        """Time inside spans called ``parent_name``, split by direct child name."""
        parents = {i for i, s in enumerate(self.spans) if s[0] == parent_name}
        split: dict[str, float] = {}
        for name, start, end, parent in self.spans:
            if parent in parents:
                split[name] = split.get(name, 0.0) + end - start
        total = sum(self.spans[i][2] - self.spans[i][1] for i in parents)
        split["(self)"] = total - sum(split.values())
        return split
