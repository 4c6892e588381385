"""Spans recorded from the benchmark's side of each layer boundary.

The program is not instrumented: :meth:`Tracer.wrap` replaces a public
method on the class (or a function on the module) that defines it with a
wrapper that records a span around the call, and :meth:`Tracer.unwrap`
puts the original back.  Spans are kept in memory and written once, when
the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, name, start, end, parent, request)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple] = []
        self._ids = itertools.count(1)
        self.paused = False

    @contextmanager
    def span(self, name: str):
        if self.paused:
            yield
            return
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(
                    (span_id, name, start, end, parent, getattr(self._local, "request", None))
                )

    def set_request(self, request) -> None:
        """Tag this thread's next spans as belonging to ``request``."""
        self._local.request = request

    def wrap(self, owner, attr: str, name: str) -> None:
        """Record ``name`` spans around ``owner.attr`` where it is defined."""
        if not isinstance(owner, type):
            targets = [owner]
        else:
            targets = [k for k in owner.__mro__ if attr in vars(k)][:1]
        for target in targets:
            original = vars(target)[attr]
            if any(t is target and a == attr for t, a, _ in self._patches):
                continue

            @functools.wraps(original)
            def wrapper(*args, __original=original, __name=name, **kwargs):
                with self.span(__name):
                    return __original(*args, **kwargs)

            setattr(target, attr, wrapper)
            self._patches.append((target, attr, original))

    def unwrap(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def self_seconds(self) -> dict[str, float]:
        """Per span name, the summed duration minus time covered by children."""
        child_time: dict[int, float] = {}
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        totals: dict[str, float] = {}
        for span_id, name, start, end, _, _ in self.spans:
            own = (end - start) - child_time.get(span_id, 0.0)
            totals[name] = totals.get(name, 0.0) + own
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                [
                    {
                        "id": span_id,
                        "name": name,
                        "start": start,
                        "end": end,
                        "parent": parent,
                        "request": request,
                    }
                    for span_id, name, start, end, parent, request in self.spans
                ]
            )
        )
