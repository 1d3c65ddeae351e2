"""In-memory span recording for the traced benchmark pass.

The benchmark wraps each public call it makes into a layer of the
program in a span (name, start, end, parent span, op id).  Phases the
analyzers already time under ``collect_stats=True`` are adopted as
child spans from their exported stats, so no span is added inside the
program.  A layer's self time is its span minus the time its child
spans cover.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional


class NullRecorder:
    """The untraced pass: every span is a no-op."""

    enabled = False
    op: Optional[int] = None

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield None

    def adopt(self, stats, keep: Iterable[str] = ()) -> None:
        pass

    def adopt_analysis(self, name: str, stats, keep: Iterable[str] = ()) -> None:
        pass


class SpanRecorder:
    """Records spans as a flat list; ``parent`` is an index into it."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self.op: Optional[int] = None
        self._stack: List[int] = []

    def _open(self, name: str, start: float) -> int:
        index = len(self.spans)
        self.spans.append(
            {
                "name": name,
                "start": start,
                "end": start,
                "parent": self._stack[-1] if self._stack else None,
                "op": self.op,
            }
        )
        return index

    @contextmanager
    def span(self, name: str) -> Iterator[Dict[str, object]]:
        index = self._open(name, time.perf_counter())
        self._stack.append(index)
        try:
            yield self.spans[index]
        finally:
            self._stack.pop()
            self.spans[index]["end"] = time.perf_counter()

    def adopt(self, stats, keep: Iterable[str] = ()) -> None:
        """Add the analyzer's recorded top-level spans named in ``keep``
        as children of the innermost open span.

        The analyzer measures offsets from its own construction, which
        follows the open span's start by microseconds; only the
        durations enter self times.
        """
        anchor = self.spans[self._stack[-1]]["start"]
        wanted = set(keep)
        for span in (stats or {}).get("spans", []):
            if span["name"] in wanted:
                start = anchor + span["start_ms"] / 1000.0
                index = self._open(span["name"], start)
                self.spans[index]["end"] = start + span["duration_ms"] / 1000.0

    def adopt_analysis(self, name: str, stats, keep: Iterable[str] = ()) -> None:
        """Add an analysis that ran inside the open span (for example
        inside ``DeltaAnalyzer.apply``) as a child span ``name`` whose
        duration is the sum of the analyzer's top-level spans, with the
        spans named in ``keep`` as its children."""
        top = (stats or {}).get("spans", [])
        if not top:
            return
        first = min(span["start_ms"] for span in top)
        parent = self._stack[-1]
        # analyses adopted into one span are laid end to end
        start = max(
            [self.spans[parent]["start"]]
            + [s["end"] for s in self.spans[parent + 1:] if s["parent"] == parent]
        )
        index = self._open(name, start)
        self.spans[index]["end"] = start + sum(s["duration_ms"] for s in top) / 1000.0
        self._stack.append(index)
        try:
            for span in top:
                if span["name"] in keep:
                    child = self._open(
                        span["name"], start + (span["start_ms"] - first) / 1000.0
                    )
                    self.spans[child]["end"] = (
                        self.spans[child]["start"] + span["duration_ms"] / 1000.0
                    )
        finally:
            self._stack.pop()


def self_times(spans: List[Dict[str, object]]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [float(s["end"]) - float(s["start"]) for s in spans]
    for span in spans:
        parent = span["parent"]
        if parent is not None:
            own[parent] -= float(span["end"]) - float(span["start"])
    return own
