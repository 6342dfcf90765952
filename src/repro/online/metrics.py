"""Throughput and memory metrics for the online experiments.

:class:`ThroughputSeries` buckets completion events into one-second
windows of virtual time — the Fig 12 curves are exactly this series.
:class:`MemorySampler` snapshots a checker's estimated resident bytes at
a configurable cadence — Fig 10/16 are these samples over time.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["ThroughputSeries", "MemorySampler"]


class ThroughputSeries:
    """Counts completions per fixed-width time bucket."""

    def __init__(self, bucket_seconds: float = 1.0) -> None:
        if bucket_seconds <= 0:
            raise ValueError("bucket_seconds must be positive")
        self.bucket_seconds = bucket_seconds
        self._buckets: Dict[int, int] = {}
        self.total = 0

    def record(self, timestamp: float, count: int = 1) -> None:
        # Floor division, not int(): truncation toward zero would fold
        # every timestamp in (-1, 1) bucket widths into bucket 0, so
        # negative/straddling virtual times would share a bucket with
        # the first positive one.
        bucket = math.floor(timestamp / self.bucket_seconds)
        self._buckets[bucket] = self._buckets.get(bucket, 0) + count
        self.total += count

    def series(self) -> List[Tuple[float, float]]:
        """(bucket start time, TPS) pairs, gaps filled with zero.

        The series always extends down to bucket 0 (the virtual start of
        the run), and further when negative timestamps were recorded.
        """
        if not self._buckets:
            return []
        first = min(0, min(self._buckets))
        last = max(self._buckets)
        return [
            (
                bucket * self.bucket_seconds,
                self._buckets.get(bucket, 0) / self.bucket_seconds,
            )
            for bucket in range(first, last + 1)
        ]

    def snapshot(self) -> Dict[str, Any]:
        """Counters in one dict — the service's ``STATS`` payload."""
        return {
            "total": self.total,
            "buckets": len(self._buckets),
            "bucket_seconds": self.bucket_seconds,
            "sustained_tps": round(self.sustained_tps(), 3),
            "peak_tps": round(self.peak_tps(), 3),
        }

    def sustained_tps(self, *, skip_warmup_buckets: int = 1) -> float:
        """Mean TPS after a warm-up prefix (the paper's 'sustained').

        Computed from the sparse bucket map, not the gap-filled
        :meth:`series` — a stats poller on a long-lived daemon must not
        pay O(uptime) per sample.
        """
        if not self._buckets:
            return 0.0
        first = min(0, min(self._buckets))
        last = max(self._buckets)
        n_points = last - first + 1
        if n_points > skip_warmup_buckets:
            skipped = sum(
                self._buckets.get(bucket, 0)
                for bucket in range(first, first + skip_warmup_buckets)
            )
            count, points = self.total - skipped, n_points - skip_warmup_buckets
        else:  # warm-up covers everything: fall back to the full series
            count, points = self.total, n_points
        return (count / self.bucket_seconds) / points

    def peak_tps(self) -> float:
        if not self._buckets:
            return 0.0
        # Gap buckets contribute zero; recorded counts are non-negative,
        # so the sparse maximum is the series maximum.
        return max(self._buckets.values()) / self.bucket_seconds


class MemorySampler:
    """Periodically samples a byte-estimate callable.

    ``_countdown`` starts the first window part-way: ``every_n - 1``
    samples at the first event.
    """

    __slots__ = ("estimate", "every_n", "samples", "_countdown")
    __hash__ = None  # type: ignore[assignment]

    def __init__(
        self,
        estimate: Callable[[], int],
        every_n: int = 1000,
        samples: Optional[List[Tuple[float, int]]] = None,
        _countdown: int = 0,
    ) -> None:
        self.estimate = estimate
        self.every_n = every_n
        self.samples = [] if samples is None else samples
        self._countdown = _countdown

    def _values(self) -> tuple:
        return (self.estimate, self.every_n, self.samples, self._countdown)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __repr__(self) -> str:
        return (
            f"MemorySampler(estimate={self.estimate!r}, every_n={self.every_n!r}, "
            f"samples={self.samples!r}, _countdown={self._countdown!r})"
        )

    def maybe_sample(self, timestamp: float) -> bool:
        """Count one event; sample at every ``every_n``-th and say so."""
        self._countdown += 1
        if self._countdown < self.every_n:
            return False
        self._countdown = 0
        self.samples.append((timestamp, self.estimate()))
        return True

    def force_sample(self, timestamp: float) -> None:
        self.samples.append((timestamp, self.estimate()))

    @property
    def peak_bytes(self) -> int:
        return max((value for _, value in self.samples), default=0)
