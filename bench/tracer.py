"""Span tracer that times calls into the higen modules from the outside.

`Tracer.wrap` swaps a module function or class method for a timing wrapper
and `Tracer.restore` puts the original back, so the package under test
carries no tracing code. Spans are kept in memory as compact arrays: name,
start, end, the span that caused it (its parent) and the root span of the
request it belongs to. Aggregates are computed once the run ends.
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.root = array("i")
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        parent = self._stack[-1] if self._stack else -1
        self.name.append(nid)
        self.parent.append(parent)
        self.root.append(self.root[parent] if parent >= 0 else idx)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Record a span named `name` around every call of owner.attr; with
        `count`, also add count(result) to counts[name]."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(idx)
            if count is not None:
                tracer.counts[name] = tracer.counts.get(name, 0) + count(result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation ----------------------------------------------------------

    def table(self) -> dict[tuple[str, str, str], tuple[int, float, float]]:
        """(root span name, parent span name, span name) -> (calls, total
        seconds, self seconds); a root span's parent name is "".

        A span's self time is its duration minus the durations of its direct
        children; the children of one span never overlap."""
        if not self.start:
            return {}
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        root = np.frombuffer(self.root, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - child
        labels = self.names + [""]
        parent_name = np.where(has_parent, name[parent], len(self.names))
        width = len(labels)
        key = (name[root].astype(np.int64) * width + parent_name) * width + name
        out = {}
        for k in np.unique(key):
            sel = key == k
            rp, n = divmod(int(k), width)
            r, p = divmod(rp, width)
            out[(labels[r], labels[p], labels[n])] = (int(sel.sum()), float(dur[sel].sum()),
                                                      float(own[sel].sum()))
        return out
