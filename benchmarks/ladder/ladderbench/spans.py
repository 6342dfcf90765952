"""In-memory spans recorded by the benchmark around calls into a layer."""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional


class Tracer:
    """Nested spans of one workload's traced repetition.

    A span is ``{id, name, start, end, parent}``; spans opened while
    another is open become its children.  Kept in memory, written once.
    """

    traced = True

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[Dict[str, object]] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        span_id = len(self.spans)
        record: Dict[str, object] = {
            "id": span_id,
            "name": name,
            "workload": self.workload,
            "parent": self._open[-1] if self._open else None,
            "start": time.monotonic(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(span_id)
        try:
            yield
        finally:
            record["end"] = time.monotonic()
            self._open.pop()

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s["name"] == name)

    def self_times(self) -> Dict[str, float]:
        """Per span name: duration minus the part direct children cover."""
        return self_times(self.spans)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"workload": self.workload, "spans": self.spans}) + "\n",
            encoding="utf-8",
        )


class NullTracer:
    """The untraced pass: ``span`` costs one context-manager entry."""

    traced = False

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield


def self_times(spans: List[Dict[str, object]]) -> Dict[str, float]:
    child_time: Dict[Optional[int], float] = {}
    for s in spans:
        child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + (s["end"] - s["start"])
    totals: Dict[str, float] = {}
    for s in spans:
        own = (s["end"] - s["start"]) - child_time.get(s["id"], 0.0)
        totals[s["name"]] = totals.get(s["name"], 0.0) + own
    return totals
