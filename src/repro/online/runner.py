"""The online experiment runner (§VI).

Feeds an arrival schedule into an online checker and measures what the
paper's online figures report.  There is one loop,
:meth:`OnlineRunner.run`: it groups consecutive arrivals into batches of
``batch_size`` (one arrival each by default), snaps the virtual clock to
each batch's last arrival, hands the batch to the checker's
``receive_many`` and applies the GC policy between batches.  What the
clock does next is the one choice between the two pacing modes:

- **capacity mode** (``charge_check_time=True``, Fig 12/16): the checker
  is the bottleneck — arrivals queue up and virtual time also advances
  by the *measured wall-clock cost* of checking each batch (plus GC
  pauses), so the produced throughput-over-time series reflects the
  checker's real sustainable rate under the chosen GC policy, exactly
  like feeding pre-collected logs faster than the checker can drain them
  (§VI-A).
- **tracking mode** (``charge_check_time=False``, Fig 13/14/17–21): the
  checker is assumed to keep up — virtual time is each arrival's
  scheduled time and nothing else, so EXT timeout and flip-flop timings
  are exact functions of the delay model.

Each batch is flattened into a :class:`~repro.core.colpack.ColumnarBatch`
before the stopwatch starts, as a collected log is decoded before it is
checked, so the measured cost is the checker's work alone.

GC policies reproduce the three Fig 12 strategies — ``no-gc``,
``checking-gc`` (threshold-triggered collection of everything below the
GC-safe timestamp) and ``full-gc`` (a hard resident cap enforced
immediately, collecting every time the cap is hit) — and Fig 16's
``memory-cap`` (a full collection whenever a memory sample exceeds
``max_bytes``).
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import List, Optional, Protocol, Tuple

from repro.core.batch import ColumnarBatch
from repro.core.violations import CheckResult
from repro.online.collector import ArrivalSchedule
from repro.online.clock import SimClock
from repro.online.metrics import MemorySampler, ThroughputSeries

__all__ = ["GcPolicy", "OnlineRunner", "OnlineRunReport", "OnlineChecker"]


class OnlineChecker(Protocol):
    """What the runner needs from Aion / Aion-SER."""

    def receive_many(self, txns) -> None: ...
    def finalize(self) -> CheckResult: ...
    @property
    def resident_txn_count(self) -> int: ...
    def collect_below(self, ts: Optional[int] = None): ...
    def collect_at_threshold(self, threshold: int): ...
    def estimated_bytes(self) -> int: ...


class GcPolicy(enum.Enum):
    """The three Fig 12 garbage-collection strategies and Fig 16's cap."""

    NO_GC = "no-gc"
    CHECKING_GC = "checking-gc"
    FULL_GC = "full-gc"
    MEMORY_CAP = "memory-cap"


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
    """Runs one checker over one schedule.

    ``gc_threshold`` is the resident-transaction count that triggers
    ``checking-gc`` / ``full-gc``.  ``memory_sample_every`` samples the
    checker's estimated bytes every that many arrivals; ``memory-cap``
    needs it, and ``max_bytes``, and then samples at the first arrival
    too, so a schedule shorter than one window still gets a sample.
    """

    def __init__(
        self,
        checker: OnlineChecker,
        clock: SimClock,
        *,
        gc_policy: GcPolicy = GcPolicy.NO_GC,
        gc_threshold: int = 50_000,
        memory_sample_every: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> None:
        if gc_policy is GcPolicy.MEMORY_CAP and (max_bytes is None or memory_sample_every is None):
            raise ValueError("GcPolicy.MEMORY_CAP needs max_bytes and memory_sample_every")
        self.checker = checker
        self.clock = clock
        self.gc_policy = gc_policy
        self.gc_threshold = gc_threshold
        self.max_bytes = max_bytes
        self._memory_every = memory_sample_every

    def run(
        self,
        schedule: ArrivalSchedule,
        *,
        batch_size: int = 1,
        charge_check_time: bool = True,
    ) -> OnlineRunReport:
        """Check ``schedule`` in batches of ``batch_size`` arrivals.

        The checker may only start a batch once its last member arrived,
        so virtual time first snaps to that arrival; with
        ``charge_check_time`` it then advances by the measured cost of
        the batch and of each GC pause (capacity mode), without it the
        clock follows the arrivals alone (tracking mode).
        """
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        throughput = ThroughputSeries()
        sampler = None
        if self._memory_every is not None:
            every = self._memory_every
            first = every - 1 if self.gc_policy is GcPolicy.MEMORY_CAP else 0
            sampler = MemorySampler(self.checker.estimated_bytes, every_n=every, _countdown=first)
        pauses: List[float] = []
        wall_start = time.perf_counter()

        arrivals = list(schedule)
        for offset in range(0, len(arrivals), batch_size):
            chunk = arrivals[offset : offset + batch_size]
            self.clock.advance_to(chunk[-1][0])
            batch = ColumnarBatch.from_transactions([txn for _, txn in chunk])
            t0 = time.perf_counter()
            self.checker.receive_many(batch)
            if charge_check_time:
                self.clock.advance(time.perf_counter() - t0)

            if self.gc_policy is GcPolicy.CHECKING_GC or (
                self.gc_policy is GcPolicy.FULL_GC
                and self.checker.resident_txn_count >= self.gc_threshold
            ):
                full = self.gc_policy is GcPolicy.FULL_GC
                pause = self._collect(full=full, charge=charge_check_time)
                if pause is not None:
                    pauses.append(pause)

            throughput.record(self.clock.now(), count=len(batch))
            if sampler is None:
                continue
            for _ in range(len(batch)):
                if (
                    sampler.maybe_sample(self.clock.now())
                    and self.gc_policy is GcPolicy.MEMORY_CAP
                    and sampler.samples[-1][1] > self.max_bytes
                ):
                    pauses.append(self._collect(full=True, charge=charge_check_time))
                    sampler.force_sample(self.clock.now())

        result = self.checker.finalize()
        return OnlineRunReport(
            throughput=throughput,
            result=result,
            n_processed=len(schedule),
            n_gc_cycles=len(pauses),
            gc_seconds=sum(pauses),
            wall_seconds=time.perf_counter() - wall_start,
            virtual_seconds=self.clock.now(),
            memory_samples=sampler.samples if sampler is not None else [],
        )

    def _collect(self, *, full: bool, charge: bool) -> Optional[float]:
        """Run one GC cycle and return its pause (None if none ran).

        A full collection (FULL_GC, MEMORY_CAP) evicts everything; under
        FULL_GC each subsequent dip below the boundary forces a segment
        reload — the paper's repeatedly re-triggered full GC.  It is
        charged in full.  CHECKING_GC is the checker's threshold rule
        (``collect_at_threshold``, shared with the daemon): it keeps a
        recency margin so slightly late arrivals rarely touch spilled
        segments, and overlaps half of the pause with useful work (a
        background thread in the original system), so only half of the
        pause is charged.
        """
        t_gc = time.perf_counter()
        if full:
            self.checker.collect_below(None)
        elif self.checker.collect_at_threshold(self.gc_threshold) is None:
            return None
        pause = time.perf_counter() - t_gc
        if charge:
            self.clock.advance(pause if full else pause * 0.5)
        return pause
