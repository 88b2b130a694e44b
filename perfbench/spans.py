"""In-memory span recorder used by the traced benchmark runs.

Spans are recorded from the benchmark's own code around calls into the
library's public functions (the library itself is not instrumented).
Each span has a name, a start and end time and the index of its parent,
so a layer's *self* time is its duration minus the time its direct
children cover.  Nothing is written while the run measures; ``dump``
writes the spans out once the run is over.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Span:
    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name: str, start: float, parent: int) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects nested spans; ``span()`` yields the live :class:`Span` so
    the caller can rename it once it knows what the call did (for example
    a plan-cache call that turned out to compile rather than bind)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else -1
        rec = Span(name, time.perf_counter(), parent)
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def self_seconds(self) -> Dict[str, float]:
        """Total self time per span name."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec.parent >= 0:
                child[rec.parent] += rec.seconds
        out: Dict[str, float] = {}
        for i, rec in enumerate(self.spans):
            out[rec.name] = out.get(rec.name, 0.0) + rec.seconds - child[i]
        return out

    def dump(self, path: str, meta: Optional[dict] = None) -> None:
        """Write every span as ``[name, start, end, parent]`` rows."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "meta": meta or {},
                    "columns": ["name", "start_s", "end_s", "parent"],
                    "spans": [
                        [r.name, r.start - t0, r.end - t0, r.parent]
                        for r in self.spans
                    ],
                },
                fh,
            )
