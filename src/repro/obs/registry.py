"""A lock-cheap metrics registry with a Prometheus text encoder.

Three metric kinds cover everything the daemon exports:

- :class:`Counter` — a monotonically increasing total (``_total`` by
  convention).  Also usable as a *mirror* of a counter maintained
  elsewhere (:meth:`Counter.set_total`): the service's wire counters
  and the kernel's op counters already exist as plain ints on their hot
  paths, and re-counting them through the registry would tax the very
  code the metrics are meant to observe — the scrape handler copies
  them in instead.
- :class:`Gauge` — a value that goes both ways (queue depth, resident
  transactions, pending reads).
- :class:`Histogram` — fixed upper-bound buckets with cumulative
  Prometheus semantics (``le`` is inclusive), a running sum, and a
  quantile estimator for compact wire-stats summaries.

Concurrency model: counters and gauges are single attribute writes —
atomic enough under the GIL for monitoring reads that may tear across
*different* metrics but never within one sample.  Histograms mutate
three fields per observation, so they take a small lock; observation
happens once per drained batch, not per transaction, and rendering is
scrape-rate.

Labels: a metric constructed with ``labelnames`` is a *family*;
:meth:`labels` returns (and caches) the child carrying one label-value
combination.  A metric without labelnames is its own single child.

The encoder (:meth:`MetricsRegistry.render`) emits Prometheus text
exposition format 0.0.4: ``# HELP`` / ``# TYPE`` headers per family,
children in insertion order, label values escaped per the spec.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "DEFAULT_LATENCY_BUCKETS"]

#: Default histogram bounds for request-latency style metrics, in
#: seconds: 1ms to 10s, roughly 2.5× apart — wide enough to cover a
#: drain cycle on a loaded daemon, narrow enough that p99 estimates
#: from bucket interpolation stay meaningful.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


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


def _label_pairs(names: Sequence[str], values: Sequence[str]) -> str:
    return ",".join(
        f'{name}="{_escape_label_value(value)}"' for name, value in zip(names, values)
    )


class _Family:
    """Shared family plumbing: name, help text, labelled children."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str, labelnames: Sequence[str] = ()) -> None:
        self.name = name
        self.help = help_text
        self.labelnames = tuple(labelnames)
        #: label-values tuple -> child, in first-use order.
        self._children: Dict[Tuple[str, ...], "_Family"] = {}
        if not self.labelnames:
            self._children[()] = self

    def labels(self, *values: object) -> "_Family":
        """The child carrying one label-value combination (cached)."""
        if not self.labelnames:
            raise ValueError(f"metric {self.name!r} has no labels")
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes {len(self.labelnames)} label values, "
                f"got {len(values)}"
            )
        key = tuple(str(v) for v in values)
        child = self._children.get(key)
        if child is None:
            child = self._make_child()
            self._children[key] = child
        return child

    def _make_child(self) -> "_Family":
        raise NotImplementedError

    def _render_samples(self, lines: List[str], name: str, label_str: str) -> None:
        # ``name`` is threaded in by the parent: labelled children are
        # bare sample holders (built via ``__new__``) without one.
        raise NotImplementedError

    def render_into(self, lines: List[str]) -> None:
        lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        for key, child in self._children.items():
            child._render_samples(lines, self.name, _label_pairs(self.labelnames, key))


class Counter(_Family):
    """A monotonically increasing total."""

    kind = "counter"

    def __init__(self, name: str, help_text: str, labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help_text, labelnames)
        self.value: float = 0

    def _make_child(self) -> "Counter":
        child = Counter.__new__(Counter)
        child.value = 0
        return child

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def set_total(self, value: float) -> None:
        """Mirror a monotonic counter maintained outside the registry.

        Monotonicity is the caller's contract; used by scrape handlers
        that copy hot-path ints (wire counters, kernel op counts) in at
        scrape time instead of double-counting on the hot path.
        """
        self.value = value

    def _render_samples(self, lines: List[str], name: str, label_str: str) -> None:
        suffix = f"{{{label_str}}}" if label_str else ""
        lines.append(f"{name}{suffix} {_format_value(self.value)}")


class Gauge(_Family):
    """A value that can go up and down."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str, labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help_text, labelnames)
        self.value: float = 0

    def _make_child(self) -> "Gauge":
        child = Gauge.__new__(Gauge)
        child.value = 0
        return child

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount

    def _render_samples(self, lines: List[str], name: str, label_str: str) -> None:
        suffix = f"{{{label_str}}}" if label_str else ""
        lines.append(f"{name}{suffix} {_format_value(self.value)}")


class Histogram(_Family):
    """Fixed-bucket histogram with cumulative Prometheus rendering.

    ``buckets`` are ascending upper bounds; the implicit ``+Inf`` bucket
    is always appended.  ``le`` is inclusive, matching Prometheus: an
    observation exactly on a bound lands in that bound's bucket.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        labelnames: Sequence[str] = (),
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError("buckets must be non-empty, ascending, and distinct")
        if bounds and bounds[-1] == float("inf"):
            bounds = bounds[:-1]
        self.buckets = bounds
        self._init_state()
        super().__init__(name, help_text, labelnames)

    def _init_state(self) -> None:
        self.counts: List[int] = [0] * (len(self.buckets) + 1)
        self.sum: float = 0.0
        self.count: int = 0
        self._lock = threading.Lock()

    def _make_child(self) -> "Histogram":
        child = Histogram.__new__(Histogram)
        child.buckets = self.buckets
        child._init_state()
        return child

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

    def _render_samples(self, lines: List[str], name: str, label_str: str) -> None:
        counts, total_sum, total = self.snapshot()
        cumulative = 0
        extra = f"{label_str}," if label_str else ""
        for bound, bucket_count in zip(self.buckets, counts):
            cumulative += bucket_count
            le = _format_value(bound)
            lines.append(f'{name}_bucket{{{extra}le="{le}"}} {cumulative}')
        lines.append(f'{name}_bucket{{{extra}le="+Inf"}} {total}')
        suffix = f"{{{label_str}}}" if label_str else ""
        lines.append(f"{name}_sum{suffix} {_format_value(total_sum)}")
        lines.append(f"{name}_count{suffix} {total}")


class MetricsRegistry:
    """A named collection of metric families, rendered in one pass."""

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}

    def counter(self, name: str, help_text: str, labelnames: Sequence[str] = ()) -> Counter:
        return self._register(Counter(name, help_text, labelnames))

    def gauge(self, name: str, help_text: str, labelnames: Sequence[str] = ()) -> Gauge:
        return self._register(Gauge(name, help_text, labelnames))

    def histogram(
        self,
        name: str,
        help_text: str,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        labelnames: Sequence[str] = (),
    ) -> Histogram:
        return self._register(Histogram(name, help_text, buckets, labelnames))

    def _register(self, family: _Family) -> _Family:
        existing = self._families.get(family.name)
        if existing is not None:
            raise ValueError(f"metric {family.name!r} is already registered")
        self._families[family.name] = family
        return family

    def get(self, name: str) -> Optional[_Family]:
        return self._families.get(name)

    def render(self) -> str:
        """Prometheus text exposition (0.0.4) of every family."""
        lines: List[str] = []
        for family in self._families.values():
            family.render_into(lines)
        return "\n".join(lines) + "\n"
