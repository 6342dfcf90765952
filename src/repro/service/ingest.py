"""The ingest pipeline: bounded queue → drain task → checker.

One path from admission to verdict push::

    clients ──frames──▶ frame reader ─▶ one admission sequence
                        (repro.service.daemon: every submit is a
                         ColumnarBatch before it gets here)
                                     │ put(): slices of ≤ batch_size; an
                                     │ acked submit's last slice carries
                                     ▼ its ack
                        bounded ingest queue (backpressure, in txns)
                                     │
    producer ◀──────ack──────── drain task takes what one cycle drains,
                                     │ sends the acks those entries carry,
    subscribers ◀──broadcast──       │ then ONE receive_many() (concatenated
                                     │ when it drained several entries),
                                     ▼ then poll() — in line, on the loop thread
                               Aion (SI) / AionSer (SER)

Three properties carry the correctness story over from the library:

- **ordering** — each connection's transactions enter the queue in the
  order the client sent them, so a producer that ships its sessions in
  session order preserves the SESSION precondition (§III-C1) no matter
  how connections interleave;
- **backpressure** — the queue is bounded; when checking falls behind,
  readers stop consuming their sockets and producers block on TCP,
  instead of the daemon buffering unboundedly (the paper's collector
  applies the same admission discipline in batches).  Inside that
  bound an ack is a producer's credit: it leaves when the drain task
  takes the submit's last slice, before the check that may push the
  batch's violations, so a producer with ``window`` acked frames in
  flight never has more than ``window`` of them waiting in the queue;
- **serialized ingestion** — every checker touch (ingest, poll, GC,
  finalize, stats reads, close) runs on the event-loop thread, and only
  the drain task feeds ``receive_many``, so the wire adds concurrency
  around the checker, never inside it, and verdicts are identical to
  in-process checking (``tests/test_service.py`` proves it
  differentially; the kernel's batch-split invariance, proved by
  ``tests/test_batch_kernel.py``, is what makes concatenation safe).

The drain task checks in line and yields to the loop once per cycle.
A cycle is at most ``batch_size`` transactions (admission slices to
it), so other connections, pings, STATS and the HTTP sidecar wait for
at most one kernel batch or one GC cycle.  No worker thread is used:
the kernel holds the GIL, so a thread would only let the loop keep
filling the queue while the batch is checked — every later submit then
waits behind that backlog, and its verdict with it.

:class:`IngestPipeline` owns the queue, the drain and idle-tick tasks,
between-batch GC, the fresh-violation poll, and the live instruments
and counters those feed.  Nothing else writes them.
"""

from __future__ import annotations

import asyncio
import math
import sys
import time
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple

from repro.core.batch import ColumnarBatch
from repro.core.violations import CheckResult
from repro.obs.registry import Histogram
from repro.online.metrics import ThroughputSeries
from repro.service.config import ServiceConfig
from repro.service.protocol import violation_to_dict

__all__ = ["IngestPipeline"]

#: Seconds between idle polls of the checker's EXT timer queue.  A finite
#: EXT timeout arms real-clock deadlines that must fire even when no
#: transactions are arriving; the daemon polls at this cadence so due
#: verdicts are pushed from a quiet wire too, and ``/health`` calls the
#: poll stale after ten of these (at least 5 s).
POLL_INTERVAL = 0.5

#: A queued slice: the batch, its submit stamp, and what to call when
#: the drain task takes it (an acked submit's last slice sends the ack).
_Entry = Tuple[ColumnarBatch, float, Optional[Callable[[], None]]]


class _IngestQueue:
    """A weight-bounded asyncio queue: capacity counts *transactions*.

    ``asyncio.Queue(maxsize=...)`` counts items, but every item here is
    a whole :class:`ColumnarBatch` — an item-bounded queue would
    multiply its admission bound by the batch size.  Each entry weighs
    ``len(batch)`` and the capacity is in transactions, so backpressure
    bites at the same stream depth whatever the submit size.

    A batch heavier than the whole capacity is admitted when the queue
    is idle — a producer must not deadlock on a frame the configuration
    can never fit.

    Every entry also carries its submit *stamp* (``time.monotonic()`` at
    decode) so the drain loop can close the submit→verdict latency
    histogram without a side table, and :attr:`high_water` tracks the
    deepest transaction-weighted backlog ever queued — the signal that a
    capacity bound is actually being hit, which a depth gauge sampled at
    scrape time routinely misses.
    """

    def __init__(self, capacity: int) -> None:
        self._capacity = capacity
        #: Unbounded in items; :meth:`put` enforces the weight bound.
        self._entries: "asyncio.Queue[_Entry]" = asyncio.Queue()
        self._size = 0  # queued weight
        self._unfinished = 0  # entries put and not yet task_done()
        self._room = asyncio.Event()
        #: Deepest transaction-weighted depth ever reached.
        self.high_water = 0
        self.join = self._entries.join

    def qsize(self) -> int:
        return self._size

    @property
    def idle(self) -> bool:
        """Nothing queued *and* nothing a consumer still holds."""
        return self._unfinished == 0

    async def put(
        self, batch: ColumnarBatch, stamp: float, on_taken: Optional[Callable[[], None]]
    ) -> None:
        weight = len(batch)
        while self._size > 0 and self._size + weight > self._capacity:
            self._room.clear()
            await self._room.wait()
        self._size += weight
        if self._size > self.high_water:
            self.high_water = self._size
        self._unfinished += 1
        self._entries.put_nowait((batch, stamp, on_taken))

    async def get(self) -> _Entry:
        return self._taken(await self._entries.get())

    def get_nowait(self) -> _Entry:
        return self._taken(self._entries.get_nowait())

    def _taken(self, entry: _Entry) -> _Entry:
        self._size -= len(entry[0])
        # Wake every waiting putter; each re-checks the capacity and the
        # ones that still do not fit simply wait again.
        self._room.set()
        return entry

    def task_done(self, entries: int) -> None:
        self._unfinished -= entries
        for _ in range(entries):
            self._entries.task_done()


class IngestPipeline:
    """Queue, drain loop, idle tick and the checker they feed."""

    def __init__(
        self,
        config: ServiceConfig,
        checker: Any,
        broadcast: Callable[[List[Dict[str, Any]]], Awaitable[None]],
    ) -> None:
        self.config = config
        self.checker = checker
        self._broadcast = broadcast
        self.queue = _IngestQueue(config.queue_capacity)
        self._drain_task: Optional[asyncio.Task] = None
        self._tick_task: Optional[asyncio.Task] = None
        self.started_at = time.monotonic()
        self.received = 0
        self.pushed_violations = 0
        self.gc_cycles = 0
        self.gc_seconds = 0.0
        #: versions / intervals moved to spill segments; resident-index
        #: entries released ("txns": nothing is written for those).
        self.gc_evicted = {"versions": 0, "intervals": 0, "txns": 0}
        self.ingest_errors = 0
        self.last_ingest_error: Optional[str] = None
        self._throughput = ThroughputSeries()
        #: Monotonic stamps of the last completed drain cycle / idle EXT
        #: poll, feeding the ``/health`` freshness components.
        self.last_drain_at: Optional[float] = None
        self.last_poll_at: Optional[float] = None
        #: The live-updated instruments (everything else on ``/metrics``
        #: is read from the ``stats()`` snapshot at scrape time): one
        #: weighted ``observe`` per drained queue entry, one per drain
        #: cycle, one per completed GC cycle — never one per transaction.
        self.latency = Histogram(
            "repro_submit_to_verdict_seconds",
            "Latency from submit frame decode to post-verdict drain completion; "
            "a frame's wait in socket buffers before decode is not counted",
        )
        self.gc_pause = Histogram(
            "repro_gc_pause_seconds",
            "Duration of one GC cycle (evict + spill), ingest stalled meanwhile",
        )
        self.kernel_batch_size = Histogram(
            "repro_kernel_batch_size",
            "Transactions one drain cycle handed to receive_many (mass at 1: set-up cost rules)",
            (1, 2, 5, 10, 50, 100, 500, 1000),
        )

    def start(self) -> None:
        loop = asyncio.get_running_loop()
        self.started_at = time.monotonic()
        self._drain_task = loop.create_task(self._drain_loop())
        if math.isfinite(self.config.timeout):
            # A finite EXT timeout arms real-clock deadlines that must
            # fire even when no transactions arrive — the drain loop only
            # polls after a batch, so an idle wire needs this tick.
            self._tick_task = loop.create_task(self._tick_loop())

    async def drain_and_stop(self) -> None:
        """Check everything admitted, then stop the drain and tick tasks.

        A submit handler suspended on a full queue can slip one more
        slice in after ``join()`` returned (its blocked put resumes once
        slots free up).  It will be acked or reported as admitted, so it
        must be checked: the live drain loop keeps running until the
        queue is idle across an event-loop yield, which gives every
        woken putter its final turn.  "Queue empty" is not the test —
        an entry the drain task holds is in nobody's queue.
        """
        while True:
            await self.queue.join()
            await asyncio.sleep(0)
            if self.queue.idle:
                break
        await self.cancel()

    async def cancel(self) -> None:
        """Stop the tasks without draining (the abort path)."""
        for task in (self._drain_task, self._tick_task):
            if task is not None:
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass

    @property
    def drain_alive(self) -> bool:
        return self._drain_task is not None and not self._drain_task.done()

    @property
    def tick_alive(self) -> bool:
        return self._tick_task is not None and not self._tick_task.done()

    async def put(
        self, batch: ColumnarBatch, stamp: float, on_taken: Optional[Callable[[], None]]
    ) -> None:
        """Admit one slice.  Blocks while the queue is full: the calling
        reader stops consuming its socket and the producer sees TCP
        backpressure.  ``on_taken`` is called when the drain task takes
        the slice, before it is checked."""
        await self.queue.put(batch, stamp, on_taken)
        self.received += len(batch)

    async def drain(self) -> int:
        """Wait until everything admitted so far is checked; returns the
        checker's processed count."""
        await self.queue.join()
        return self.checker.processed

    async def finalize(self) -> CheckResult:
        """Drain, force-finalize pending EXT verdicts, push what that
        finalized."""
        await self.queue.join()
        result = self.checker.finalize()
        await self._broadcast(self._fresh_violation_messages())
        return result

    def throughput(self) -> Dict[str, Any]:
        return self._throughput.snapshot()

    async def _drain_loop(self) -> None:
        """Pull queued batches, check one batch per cycle, push verdicts.

        The ``on_taken`` callbacks of a cycle's entries run as soon as
        the entries are taken, before the check: the producer's next
        frame arrives while this batch is checked, and an ack precedes
        the violations its batch causes.  Nothing in a cycle suspends
        while entries are queued — ``get()`` returns at once, and GC and
        the broadcast never await I/O — so the yield after each cycle is
        what lets the rest of the loop run between kernel batches.
        """
        queue = self.queue
        batch_size = self.config.batch_size
        while True:
            entries = [await queue.get()]
            total = len(entries[0][0])
            while total < batch_size:
                try:
                    entries.append(queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
                total += len(entries[-1][0])
            for _, _, on_taken in entries:
                if on_taken is not None:
                    on_taken()
            try:
                await self._check(entries, total)
            finally:
                queue.task_done(len(entries))
            await asyncio.sleep(0)

    async def _check(self, entries: List[_Entry], total: int) -> None:
        # Small submits from many producers become one kernel batch:
        # receive_many's set-up cost is per call, and its verdicts do not
        # depend on how arrivals are split into batches.
        if len(entries) == 1:
            batch = entries[0][0]
        else:
            batch = ColumnarBatch.concat(entry[0] for entry in entries)
        try:
            # A raised ingest error leaves any fresh violations to the
            # next poll.
            self.checker.receive_many(batch)
            fresh = self._fresh_violation_messages()
        except Exception as exc:
            # Admission refuses what the checkers are known to refuse;
            # anything else that makes receive_many raise must still not
            # kill the drain task — that would wedge every later drain /
            # finalize / shutdown on queue.join().  Drop the cycle's
            # batch, count it, keep draining.
            self.ingest_errors += 1
            self.last_ingest_error = f"{type(exc).__name__}: {exc}"
            print(
                f"repro.service: dropped a {total}-transaction batch: {self.last_ingest_error}",
                file=sys.stderr,
            )
            return
        done_at = time.monotonic()
        self.last_drain_at = done_at
        self.kernel_batch_size.observe(total)
        self._throughput.record(done_at - self.started_at, total)
        # Close the submit→verdict histogram: every queue entry was
        # stamped at submit decode, and its verdicts (synchronous ones,
        # plus this batch's re-evaluations) are emitted by the call that
        # just returned.  Weighted by transactions so producers with
        # different submit sizes aggregate comparably.
        for entry, stamp, _ in entries:
            self.latency.observe(done_at - stamp, len(entry))
        try:
            self._maybe_collect()
            await self._broadcast(fresh)
        except Exception as exc:
            # GC (which may spill to disk) or a push failing must not
            # kill the drain task either — the batch was checked; losing
            # a collection cycle or a push is recoverable, a dead drain
            # task is not.
            print(
                f"repro.service: post-ingest step failed: {type(exc).__name__}: {exc}",
                file=sys.stderr,
            )

    async def _tick_loop(self) -> None:
        """Fire due EXT-timeout verdicts while the wire is idle.

        ``poll()`` is the only place the EXT timer queue advances outside
        ingestion; without this tick a quiet stream would sit on expired
        timers until the next submit or finalize.
        """
        while True:
            await asyncio.sleep(POLL_INTERVAL)
            try:
                await self._broadcast(self._fresh_violation_messages())
                self.last_poll_at = time.monotonic()
            except Exception as exc:
                print(
                    f"repro.service: idle poll failed: {type(exc).__name__}: {exc}",
                    file=sys.stderr,
                )

    def _fresh_violation_messages(self) -> List[Dict[str, Any]]:
        fresh = self.checker.poll()
        self.pushed_violations += len(fresh)
        return [{"type": "violation", "violation": violation_to_dict(v)} for v in fresh]

    def _maybe_collect(self) -> None:
        report = self.checker.collect_at_threshold(self.config.gc_threshold)
        if report is None:
            return
        self.gc_cycles += 1
        self.gc_seconds += report.seconds
        self.gc_evicted["versions"] += report.evicted_versions
        self.gc_evicted["intervals"] += report.evicted_intervals
        self.gc_evicted["txns"] += report.evicted_txns
        self.gc_pause.observe(report.seconds)
