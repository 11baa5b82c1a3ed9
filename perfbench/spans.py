"""In-memory span tracing by wrapping module attributes.

A `Tracer` replaces functions such as `trackgraph.assocgraph.gnn_forward`
with wrappers that record one span per call: name, start, end, the index of
the enclosing span, and the context label (sequence or iteration id) current
when the span opened.  This works because the program calls its layers
through module lookups (`ag.gnn_forward(...)`, `nc.backward(...)`), so the
wrapper is seen by every caller.  Spans stay in memory until `write`.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, int, int, int, str]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.context = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter_ns(), 0, parent, self.context))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            name, start, _, parent, ctx = self.spans[index]
            self.spans[index] = (name, start, time.perf_counter_ns(), parent, ctx)

    def add(self, module, attr: str, name: str, before=None):
        """Wrap module.attr in a span.  `before(*args, **kwargs)` runs ahead of
        the span, so its own cost is not charged to the layer."""
        real = getattr(module, attr)

        @functools.wraps(real)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            with self.span(name):
                return real(*args, **kwargs)

        self._patches.append((module, attr, real, wrapper))

    def add_counter(self, module, attr: str, name: str):
        """Count calls to module.attr without timing them (for functions
        called so often that a span would distort the layer)."""
        real = getattr(module, attr)

        @functools.wraps(real)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return real(*args, **kwargs)

        self._patches.append((module, attr, real, wrapper))

    @contextmanager
    def installed(self):
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, real, _ in reversed(self._patches):
                setattr(module, attr, real)

    # -- reading -----------------------------------------------------------

    def write(self, path):
        """One JSON object per line: name, start/end in ns, parent index
        (-1 for a root), context label."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, ctx) in enumerate(self.spans):
                fh.write(json.dumps({"i": i, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "ctx": ctx}) + "\n")

    def summarize(self) -> dict[tuple[str, str], dict]:
        """Per (root span name, span name): calls, inclusive seconds and self
        seconds (duration minus the time covered by direct children)."""
        child_ns = [0] * len(self.spans)
        root = [""] * len(self.spans)
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child_ns[parent] += end - start
                root[i] = root[parent]
            else:
                root[i] = name
        table: dict[tuple[str, str], dict] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = table[(root[i], name)]
            row["calls"] += 1
            row["total_s"] += (end - start) / 1e9
            row["self_s"] += (end - start - child_ns[i]) / 1e9
        return dict(table)
