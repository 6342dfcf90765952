"""Prometheus text encoding and the one live metric kind, :class:`Histogram`.

Every other family the daemon exports is a value it already keeps — a
plain int on a hot path, read into the ``stats()`` snapshot — so a
scrape renders those straight from the snapshot with
:func:`render_family`; nothing here holds a second copy of them.  What
the snapshot cannot carry is a distribution, and that is what
:class:`Histogram` keeps: fixed upper-bound buckets with cumulative
Prometheus semantics (``le`` is inclusive), a running sum, and a
quantile estimator for compact wire-stats summaries.  It mutates three
fields per observation, so it takes a small lock; observation happens
once per drained batch, not per transaction, and rendering is
scrape-rate.

The encoder emits Prometheus text exposition format 0.0.4: ``# HELP`` /
``# TYPE`` headers per family, samples in the order given, label values
escaped per the spec.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

__all__ = ["Histogram", "render_family", "DEFAULT_LATENCY_BUCKETS"]

#: Default histogram bounds for request-latency style metrics, in
#: seconds: 1ms to 10s, roughly 2.5× apart — wide enough to cover a
#: drain cycle on a loaded daemon, narrow enough that p99 estimates
#: from bucket interpolation stay meaningful.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: One sample: ``(suffix after the family name, labels, value)``.
Sample = Tuple[str, Mapping[str, Any], float]


def _format_value(value: float) -> str:
    """Render a sample value the way Prometheus expects (ints bare)."""
    if isinstance(value, bool):  # pragma: no cover - defensive
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if value != value:  # NaN
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def render_family(
    lines: List[str], name: str, help_text: str, kind: str, samples: Iterable[Sample]
) -> None:
    """Append one family's ``# HELP`` and ``# TYPE`` lines and a line per sample."""
    lines.append(f"# HELP {name} {help_text}")
    lines.append(f"# TYPE {name} {kind}")
    for suffix, labels, value in samples:
        label_str = ",".join(
            f'{label}="{_escape_label_value(str(text))}"' for label, text in labels.items()
        )
        braces = f"{{{label_str}}}" if label_str else ""
        lines.append(f"{name}{suffix}{braces} {_format_value(value)}")


class Histogram:
    """Fixed-bucket histogram with cumulative Prometheus rendering.

    ``buckets`` are ascending upper bounds; the implicit ``+Inf`` bucket
    is always appended.  ``le`` is inclusive, matching Prometheus: an
    observation exactly on a bound lands in that bound's bucket.
    """

    def __init__(
        self, name: str, help_text: str, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError("buckets must be non-empty, ascending, and distinct")
        if bounds[-1] == float("inf"):
            bounds = bounds[:-1]
        self.name = name
        self.help = help_text
        self.buckets = bounds
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self.sum: float = 0.0
        self.count: int = 0
        self._lock = threading.Lock()

    def observe(self, value: float, count: int = 1) -> None:
        """Record ``count`` observations of ``value`` (one lock hop)."""
        index = bisect_left(self.buckets, value)
        with self._lock:
            self.counts[index] += count
            self.count += count
            self.sum += value * count

    def snapshot(self) -> Tuple[List[int], float, int]:
        with self._lock:
            return list(self.counts), self.sum, self.count

    def quantile(self, q: float) -> Optional[float]:
        """Bucket-interpolated quantile estimate (None when empty).

        Linear interpolation inside the bucket containing the target
        rank, with the first bucket interpolated from zero and the
        ``+Inf`` bucket clamped to the highest finite bound — the same
        estimate ``histogram_quantile`` computes server-side.
        """
        counts, _sum, total = self.snapshot()
        if total == 0:
            return None
        target = q * total
        cumulative = 0
        for index, bucket_count in enumerate(counts):
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= target:
                if index >= len(self.buckets):  # +Inf bucket
                    return self.buckets[-1]
                hi = self.buckets[index]
                lo = self.buckets[index - 1] if index > 0 else 0.0
                if bucket_count == 0:  # pragma: no cover - defensive
                    return hi
                return lo + (hi - lo) * (target - previous) / bucket_count
        return self.buckets[-1]  # pragma: no cover - unreachable

    def summary(self) -> Dict[str, object]:
        """Compact dict for the wire ``STATS`` payload."""
        _counts, total_sum, total = self.snapshot()
        row: Dict[str, object] = {
            "count": total,
            "sum_s": round(total_sum, 6),
        }
        for label, q in (("p50_s", 0.5), ("p95_s", 0.95), ("p99_s", 0.99)):
            estimate = self.quantile(q)
            row[label] = round(estimate, 6) if estimate is not None else None
        return row

    def _samples(self) -> Iterator[Sample]:
        counts, total_sum, total = self.snapshot()
        cumulative = 0
        for bound, bucket_count in zip(self.buckets, counts):
            cumulative += bucket_count
            yield "_bucket", {"le": _format_value(bound)}, cumulative
        yield "_bucket", {"le": "+Inf"}, total
        yield "_sum", {}, total_sum
        yield "_count", {}, total

    def render_into(self, lines: List[str]) -> None:
        render_family(lines, self.name, self.help, "histogram", self._samples())
