"""The online experiment runner (§VI).

Feeds an arrival schedule into an online checker and measures what the
paper's online figures report.  Two pacing modes:

- **capacity mode** (Fig 12): the checker is the bottleneck — arrivals
  queue up and virtual time advances by the *measured wall-clock cost*
  of checking each arrival (plus GC pauses), so the produced
  throughput-over-time series reflects the checker's real sustainable
  rate under the chosen GC policy, exactly like feeding pre-collected
  logs faster than the checker can drain them (§VI-A).
- **tracking mode** (Fig 13/14/17–21): the checker is assumed to keep
  up — virtual time snaps to each arrival's scheduled time, so EXT
  timeout and flip-flop timings are exact functions of the delay model.

A third, **batched capacity mode** feeds the checker whole collector
batches through ``receive_many`` — the sharded ingestion frontend's
native unit of work — with the same virtual-time accounting as capacity
mode.

The timed modes hand the checker its input format: each arrival (or
batch) is flattened into a :class:`~repro.core.colpack.ColumnarBatch`
before the stopwatch starts, as a collected log is decoded before it is
checked, so the measured cost is the checker's work alone.

GC policies reproduce the three Fig 12 strategies: ``no-gc``,
``checking-gc`` (threshold-triggered collection of everything below the
GC-safe timestamp) and ``full-gc`` (a hard resident cap enforced
immediately, collecting every time the cap is hit).
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import List, Optional, Protocol, Tuple

from repro.core.colpack import ColumnarBatch
from repro.core.violations import CheckResult
from repro.online.collector import ArrivalSchedule
from repro.online.clock import SimClock
from repro.online.metrics import MemorySampler, ThroughputSeries

__all__ = ["GcPolicy", "OnlineRunner", "OnlineRunReport", "OnlineChecker"]


class OnlineChecker(Protocol):
    """What the runner needs from Aion / Aion-SER / ShardedAion."""

    def receive(self, txn) -> None: ...
    def receive_many(self, txns) -> None: ...
    def finalize(self) -> CheckResult: ...
    @property
    def resident_txn_count(self) -> int: ...
    def collect_below(self, ts: Optional[int] = None): ...
    def suggest_gc_ts(self, keep_recent: int = 2000) -> Optional[int]: ...
    def estimated_bytes(self) -> int: ...


class GcPolicy(enum.Enum):
    """The three Fig 12 garbage-collection strategies."""

    NO_GC = "no-gc"
    CHECKING_GC = "checking-gc"
    FULL_GC = "full-gc"


@dataclass
class OnlineRunReport:
    """Everything the online figures need from one run."""

    throughput: ThroughputSeries
    result: CheckResult
    n_processed: int = 0
    n_gc_cycles: int = 0
    gc_seconds: float = 0.0
    wall_seconds: float = 0.0
    virtual_seconds: float = 0.0
    memory_samples: List[Tuple[float, int]] = field(default_factory=list)

    @property
    def sustained_tps(self) -> float:
        return self.throughput.sustained_tps()

    @property
    def overall_tps(self) -> float:
        """Processed transactions per second of virtual time."""
        if self.virtual_seconds <= 0:
            return 0.0
        return self.n_processed / self.virtual_seconds


class OnlineRunner:
    """Runs one checker over one schedule."""

    def __init__(
        self,
        checker: OnlineChecker,
        clock: SimClock,
        *,
        gc_policy: GcPolicy = GcPolicy.NO_GC,
        gc_threshold: int = 50_000,
        memory_sample_every: Optional[int] = None,
    ) -> None:
        self.checker = checker
        self.clock = clock
        self.gc_policy = gc_policy
        self.gc_threshold = gc_threshold
        self._memory_every = memory_sample_every

    # ------------------------------------------------------------------

    def run_capacity(self, schedule: ArrivalSchedule) -> OnlineRunReport:
        """Wall-clock-paced run: measures sustainable throughput."""
        throughput = ThroughputSeries()
        sampler = self._make_sampler()
        gc_seconds = 0.0
        n_gc = 0
        wall_start = time.perf_counter()

        for arrival_time, txn in schedule:
            # The checker may only start once the transaction arrived.
            self.clock.advance_to(arrival_time)
            arrival = ColumnarBatch.from_transactions([txn])
            t0 = time.perf_counter()
            self.checker.receive_many(arrival)
            self.clock.advance(time.perf_counter() - t0)

            pause = self._maybe_collect()
            if pause is not None:
                gc_seconds += pause
                n_gc += 1

            throughput.record(self.clock.now())
            if sampler is not None:
                sampler.maybe_sample(self.clock.now())

        result = self.checker.finalize()
        return OnlineRunReport(
            throughput=throughput,
            result=result,
            n_processed=len(schedule),
            n_gc_cycles=n_gc,
            gc_seconds=gc_seconds,
            wall_seconds=time.perf_counter() - wall_start,
            virtual_seconds=self.clock.now(),
            memory_samples=sampler.samples if sampler is not None else [],
        )

    def _maybe_collect(self) -> Optional[float]:
        """Apply the configured GC policy once; return the pause if any.

        FULL_GC enforces a hard resident cap (evict everything; each
        subsequent dip below the boundary forces a segment reload — the
        paper's repeatedly re-triggered full GC).  CHECKING_GC keeps a
        recency margin so slightly late arrivals rarely touch spilled
        segments, and overlaps half of the pause with useful work (a
        background thread in the original system), so only half of the
        measured pause advances virtual time.
        """
        if self.gc_policy is GcPolicy.NO_GC:
            return None
        if self.checker.resident_txn_count < self.gc_threshold:
            return None
        t_gc = time.perf_counter()
        if self.gc_policy is GcPolicy.FULL_GC:
            self.checker.collect_below(None)
        else:
            target = self.checker.suggest_gc_ts(
                keep_recent=max(1, self.gc_threshold // 2)
            )
            if target is not None:
                self.checker.collect_below(target)
        pause = time.perf_counter() - t_gc
        if self.gc_policy is GcPolicy.FULL_GC:
            self.clock.advance(pause)
        else:
            self.clock.advance(pause * 0.5)
        return pause

    def run_capacity_batched(
        self, schedule: ArrivalSchedule, *, batch_size: int = 500
    ) -> OnlineRunReport:
        """Wall-clock-paced run feeding the checker whole batches.

        Groups consecutive arrivals into batches of ``batch_size`` and
        hands each to :meth:`OnlineChecker.receive_many` — the checker may
        only start a batch once its last member arrived, so virtual time
        first snaps to that arrival and then advances by the measured
        cost of the batch.  GC policies apply between batches.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        throughput = ThroughputSeries()
        sampler = self._make_sampler()
        gc_seconds = 0.0
        n_gc = 0
        wall_start = time.perf_counter()

        arrivals = list(schedule)
        for offset in range(0, len(arrivals), batch_size):
            chunk = arrivals[offset : offset + batch_size]
            self.clock.advance_to(chunk[-1][0])
            batch = ColumnarBatch.from_transactions([txn for _, txn in chunk])
            t0 = time.perf_counter()
            self.checker.receive_many(batch)
            self.clock.advance(time.perf_counter() - t0)

            pause = self._maybe_collect()
            if pause is not None:
                gc_seconds += pause
                n_gc += 1

            throughput.record(self.clock.now(), count=len(batch))
            if sampler is not None:
                for _ in range(len(batch)):
                    sampler.maybe_sample(self.clock.now())

        result = self.checker.finalize()
        return OnlineRunReport(
            throughput=throughput,
            result=result,
            n_processed=len(schedule),
            n_gc_cycles=n_gc,
            gc_seconds=gc_seconds,
            wall_seconds=time.perf_counter() - wall_start,
            virtual_seconds=self.clock.now(),
            memory_samples=sampler.samples if sampler is not None else [],
        )

    def run_tracking(self, schedule: ArrivalSchedule) -> OnlineRunReport:
        """Arrival-paced run: exact virtual timing for EXT stability."""
        throughput = ThroughputSeries()
        sampler = self._make_sampler()
        wall_start = time.perf_counter()
        for arrival_time, txn in schedule:
            self.clock.advance_to(arrival_time)
            self.checker.receive(txn)
            throughput.record(self.clock.now())
            if sampler is not None:
                sampler.maybe_sample(self.clock.now())
        result = self.checker.finalize()
        return OnlineRunReport(
            throughput=throughput,
            result=result,
            n_processed=len(schedule),
            wall_seconds=time.perf_counter() - wall_start,
            virtual_seconds=self.clock.now(),
            memory_samples=sampler.samples if sampler is not None else [],
        )

    def run_memory_capped(
        self,
        schedule: ArrivalSchedule,
        *,
        max_bytes: int,
        check_every: int = 500,
    ) -> OnlineRunReport:
        """Fig 16 mode: GC whenever estimated memory exceeds a cap."""
        throughput = ThroughputSeries()
        sampler = MemorySampler(self.checker.estimated_bytes, every_n=check_every)
        gc_seconds = 0.0
        n_gc = 0
        wall_start = time.perf_counter()
        # Start the countdown one full window in so the very first
        # arrival triggers a sample (and GC decision): schedules shorter
        # than ``check_every`` still produce at least one memory sample.
        countdown = check_every
        for arrival_time, txn in schedule:
            self.clock.advance_to(arrival_time)
            arrival = ColumnarBatch.from_transactions([txn])
            t0 = time.perf_counter()
            self.checker.receive_many(arrival)
            self.clock.advance(time.perf_counter() - t0)
            throughput.record(self.clock.now())
            countdown += 1
            if countdown >= check_every:
                countdown = 0
                sampler.force_sample(self.clock.now())
                if sampler.samples[-1][1] > max_bytes:
                    t_gc = time.perf_counter()
                    self.checker.collect_below(None)
                    pause = time.perf_counter() - t_gc
                    self.clock.advance(pause)
                    gc_seconds += pause
                    n_gc += 1
                    sampler.force_sample(self.clock.now())
        result = self.checker.finalize()
        return OnlineRunReport(
            throughput=throughput,
            result=result,
            n_processed=len(schedule),
            n_gc_cycles=n_gc,
            gc_seconds=gc_seconds,
            wall_seconds=time.perf_counter() - wall_start,
            virtual_seconds=self.clock.now(),
            memory_samples=sampler.samples,
        )

    # ------------------------------------------------------------------

    def _make_sampler(self) -> Optional[MemorySampler]:
        if self._memory_every is None:
            return None
        return MemorySampler(self.checker.estimated_bytes, every_n=self._memory_every)
