"""In-memory span recorder for the traced benchmark run.

Every public library call the benchmark makes goes through ``Tracer.call``.
With tracing on, each call leaves a span: its trace id (the instance it
belongs to), its own id, its parent (the instance span), a name of the form
``layer.function``, start and end times, and free-form attributes.  Spans stay
in memory until ``dump`` writes them out at the end of the run.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Calls through to the library; records spans only when enabled."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._trace = None
        self._parent = None

    @contextmanager
    def root(self, name: str, trace_id):
        """Span enclosing every call made for one instance (or for set-up)."""
        if not self.enabled:
            yield
            return
        span = self._open(name, trace_id, None)
        self._trace, self._parent = trace_id, span["id"]
        try:
            yield
        finally:
            span["end"] = perf_counter()
            self._trace = self._parent = None

    def call(self, name: str, thunk):
        """Run ``thunk()``; with tracing on, record it as a child span."""
        if not self.enabled:
            return thunk()
        span = self._open(name, self._trace, self._parent)
        try:
            return thunk()
        finally:
            span["end"] = perf_counter()

    def annotate(self, **attrs) -> None:
        """Attach attributes (counts computed from a result) to the last span."""
        if self.enabled and self.spans:
            self.spans[-1]["attrs"].update(attrs)

    def _open(self, name: str, trace_id, parent) -> dict:
        span = {
            "trace": trace_id,
            "id": len(self.spans),
            "parent": parent,
            "name": name,
            "start": perf_counter(),
            "end": None,
            "attrs": {},
        }
        self.spans.append(span)
        return span

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)
            fh.write("\n")


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by its children."""
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    out = {}
    for span in spans:
        covered, reach = 0.0, span["start"]
        for start, end in sorted(children[span["id"]]):
            start, end = max(start, reach), min(end, span["end"])
            if end > start:
                covered += end - start
                reach = end
        out[span["id"]] = (span["end"] - span["start"]) - covered
    return out
