"""The asyncio checker daemon.

:class:`CheckerService` turns an in-process online checker into a
long-running network service — the continuous collector→checker loop of
the paper's deployment story (§IV-C, §VI): producers tail a database's
CDC/WAL stream and push committed transactions over the wire; the daemon
checks them as they arrive and pushes verdicts back.

Architecture::

    clients ──ndjson (v1)──▶ per-connection reader ──▶ bounded ingest queue
            ──frames (v2)──▶   (codec sniffed per         │ (backpressure,
                                message, first byte)      │  weighed in txns)
    subscribers ◀──violation push── drain task ◀──────────┘
                                       │  receive_many() batches,
                                       │  under the ingest lock, in a
                                       ▼  worker thread
                                 Aion / AionSer / ShardedAion

Protocol v2 submit frames arrive as :class:`ColumnarBatch` objects and
stay columnar all the way into ``receive_many`` — the daemon never
builds per-transaction dicts for them (see
:mod:`repro.service.protocol` for the wire contract and handshake).

Three properties carry the correctness story over from the library:

- **ordering** — each connection's transactions enter the queue in the
  order the client sent them, so a producer that ships its sessions in
  session order preserves the SESSION precondition (§III-C1) no matter
  how connections interleave;
- **backpressure** — the queue is bounded; when checking falls behind,
  readers stop consuming their sockets and producers block on TCP,
  instead of the daemon buffering unboundedly (the paper's collector
  applies the same admission discipline in batches);
- **serialized ingestion** — one drain task hands batches to
  ``receive_many`` under the checker's ingest lock, so the wire adds
  concurrency around the checker, never inside it, and verdicts are
  identical to in-process checking (``tests/test_service.py`` proves it
  differentially).

:class:`ServiceThread` hosts a daemon on a background thread with its
own event loop — the harness used by the blocking client's tests and the
wire-throughput benchmark, and a one-liner for embedding the service in
a synchronous program.
"""

from __future__ import annotations

import asyncio
import json
import math
import sys
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import TimeoutError as FutureTimeout
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from repro.core.violations import CheckResult
from repro.histories.model import Transaction
from repro.histories.serialization import ColumnarBatch, txn_from_dict
from repro.obs.http import HttpSidecar
from repro.obs.registry import DEFAULT_LATENCY_BUCKETS, MetricsRegistry
from repro.obs.trace import SlowBatchLog
from repro.online.metrics import ThroughputSeries
from repro.service.config import ServiceConfig
from repro.service.framing import (
    FRAME_MAGIC0,
    HEADER_SIZE,
    K_HELLO,
    SERVER_KIND_OF_TYPE,
    decode_frame_header,
    decode_frame_payload,
    encode_json_frame,
)
from repro.service.protocol import (
    MAX_TRACKED_SESSIONS,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_line,
    encode_message,
    new_session_token,
    result_to_dict,
    validate_session_token,
    violation_to_dict,
)

__all__ = ["CheckerService", "ServiceThread"]

#: Maximum wire-line length (a submit batch of 500 wide transactions
#: stays well under this; the bound exists so one malformed producer
#: cannot balloon the reader's buffer).
_MAX_LINE_BYTES = 16 * 1024 * 1024

#: A subscriber whose transport buffer exceeds this is disconnected: the
#: drain loop never awaits a subscriber's socket, so a consumer that
#: stops reading must be shed — not allowed to stall all checking.
_MAX_SUBSCRIBER_BUFFER = 8 * 1024 * 1024

#: Violation pushes kept for late subscribers (``subscribe`` with
#: ``replay``).  Bounds daemon memory on a violation-heavy stream; a
#: replay delivers the most recent window, live pushes are never lost.
_MAX_REPLAY_BACKLOG = 10_000


class _WireSession:
    """Per-session resume state: the daemon side of exactly-once ingest.

    One session outlives its connections: a client that reconnects with
    the session's token resumes against the same watermark.
    ``acked_seq`` is the highest submit ``seq`` admitted *in full* —
    client submit sequence numbers are strictly increasing within a
    session, so any resubmission at or below the watermark has already
    been ingested and is acked again without touching the queue.
    """

    __slots__ = ("token", "acked_seq", "deduped_txns", "resumes")

    def __init__(self, token: str) -> None:
        self.token = token
        self.acked_seq = 0
        self.deduped_txns = 0
        self.resumes = 0


class _IngestQueue:
    """A weight-bounded asyncio queue: capacity counts *transactions*.

    ``asyncio.Queue(maxsize=...)`` counts items, but the v2 wire path
    enqueues whole columnar batches as single items — an item-bounded
    queue would multiply its admission bound by the batch size.  Here
    every put declares a weight (1 for a bare transaction, ``len(batch)``
    for a columnar slice) and the capacity, ``join()``, and
    ``task_done()`` accounting are all in transactions, so backpressure
    bites at the same stream depth on both protocols.

    An item heavier than the whole capacity is admitted when the queue
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
        self._items: Deque[Tuple[Any, int, float]] = deque()
        self._size = 0  # queued weight
        self._unfinished = 0  # admitted weight not yet task_done()
        self._getters: Deque[asyncio.Future] = deque()
        self._putters: Deque[asyncio.Future] = deque()
        self._finished = asyncio.Event()
        self._finished.set()
        #: Deepest transaction-weighted depth ever reached.
        self.high_water = 0

    def qsize(self) -> int:
        return self._size

    def empty(self) -> bool:
        return not self._items

    async def put(self, item: Any, weight: int = 1, stamp: float = 0.0) -> None:
        while self._size > 0 and self._size + weight > self._capacity:
            fut: asyncio.Future = asyncio.get_running_loop().create_future()
            self._putters.append(fut)
            try:
                await fut
            except BaseException:
                try:
                    self._putters.remove(fut)
                except ValueError:
                    pass
                raise
        self.put_nowait(item, weight, stamp)

    def put_nowait(self, item: Any, weight: int = 1, stamp: float = 0.0) -> None:
        self._items.append((item, weight, stamp))
        self._size += weight
        if self._size > self.high_water:
            self.high_water = self._size
        self._unfinished += weight
        self._finished.clear()
        while self._getters:
            fut = self._getters.popleft()
            if not fut.done():
                fut.set_result(None)
                break

    async def get(self) -> Tuple[Any, int, float]:
        while not self._items:
            fut: asyncio.Future = asyncio.get_running_loop().create_future()
            self._getters.append(fut)
            try:
                await fut
            except BaseException:
                try:
                    self._getters.remove(fut)
                except ValueError:
                    pass
                raise
        return self.get_nowait()

    def get_nowait(self) -> Tuple[Any, int, float]:
        if not self._items:
            raise asyncio.QueueEmpty
        item, weight, stamp = self._items.popleft()
        self._size -= weight
        # Wake every waiting putter; each re-checks the capacity and the
        # ones that still do not fit simply wait again.
        while self._putters:
            fut = self._putters.popleft()
            if not fut.done():
                fut.set_result(None)
        return item, weight, stamp

    def task_done(self, weight: int = 1) -> None:
        self._unfinished -= weight
        if self._unfinished <= 0:
            self._unfinished = 0
            self._finished.set()

    async def join(self) -> None:
        if self._unfinished > 0:
            await self._finished.wait()


class CheckerService:
    """One daemon instance: listeners, ingest queue, drain loop."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.config.validate()
        self.checker = self.config.build_checker()
        # ShardedAion exposes its own ingest lock; the single-shard
        # checkers get one here.  Every checker touch below — ingest,
        # poll, stats reads, GC, finalize — happens under this lock, so
        # worker-thread ingestion and loop-thread reads never interleave.
        self._lock: threading.Lock = getattr(self.checker, "ingest_lock", None) or threading.Lock()
        self._queue: Optional[_IngestQueue] = None
        self._drain_task: Optional[asyncio.Task] = None
        self._tick_task: Optional[asyncio.Task] = None
        self._servers: List[asyncio.base_events.Server] = []
        self._subscribers: Set[asyncio.StreamWriter] = set()
        self._connections: Set[asyncio.StreamWriter] = set()
        self._stopped = asyncio.Event()
        self._shutting_down = False
        self._shutdown_done: Optional[asyncio.Task] = None
        self.tcp_address: Optional[Tuple[str, int]] = None
        self.unix_path: Optional[str] = None
        self.final_result: Optional[CheckResult] = None
        self.started_at = time.monotonic()
        self.received = 0
        self.pushed_violations = 0
        self.gc_cycles = 0
        self.gc_seconds = 0.0
        self.gc_evicted = {"versions": 0, "intervals": 0, "txns": 0}
        self.ingest_errors = 0
        self.last_ingest_error: Optional[str] = None
        self.throughput = ThroughputSeries()
        #: Violation messages handed to _broadcast, in push order — the
        #: replay backlog for late subscribers.  Maintained on the event
        #: loop so subscribe-with-replay can snapshot it and join
        #: _subscribers without an await in between (atomic w.r.t.
        #: broadcasts: no duplicate, no missed push).  Bounded: oldest
        #: entries fall off a violation-heavy stream.
        self._violation_log: Deque[Dict[str, Any]] = deque(maxlen=_MAX_REPLAY_BACKLOG)
        #: ThroughputSeries is written by the drain loop (event-loop
        #: thread) and snapshotted by stats() (worker thread).
        self._throughput_lock = threading.Lock()
        #: Connections that completed the v2 handshake; absent = v1.
        #: Only the send side consults this — the reader sniffs each
        #: incoming message's codec from its first byte.
        self._conn_proto: Dict[asyncio.StreamWriter, int] = {}
        #: Resume sessions by token, least-recently-touched first.
        #: Bounded at MAX_TRACKED_SESSIONS (LRU eviction) so token churn
        #: cannot grow daemon memory.  Event-loop thread only.
        self._sessions: "OrderedDict[str, _WireSession]" = OrderedDict()
        #: Connection → resume session, for connections whose hello
        #: opened or resumed one.
        self._conn_session: Dict[asyncio.StreamWriter, _WireSession] = {}
        #: Monotonic stamps of recent session resumes — the sliding
        #: window behind the ``resume_storm`` health component.
        self._resume_stamps: Deque[float] = deque(maxlen=4096)
        self.sessions_issued = 0
        self.session_resumes = 0
        self.resume_deduped_txns = 0
        self.resume_rejected = 0
        #: Per-codec wire counters, exported as ``stats()["wire"]``.
        #: Touched only from the event-loop thread (reads from stats()
        #: may tear across keys, which is fine for monotonic counters).
        self.wire: Dict[str, Dict[str, int]] = {
            codec: {
                "frames_in": 0,
                "bytes_in": 0,
                "frames_out": 0,
                "bytes_out": 0,
                "decode_errors": 0,
            }
            for codec in ("v1", "v2")
        }
        #: HTTP observability sidecar (``/metrics``, ``/health``,
        #: ``/stats``); bound in :meth:`start` when ``http_port`` is set.
        self._http: Optional[HttpSidecar] = None
        self.http_address: Optional[Tuple[str, int]] = None
        #: ``(value, measured_at)`` cache for ``estimated_bytes`` — the
        #: deep-sizeof walk runs under the ingest lock, so wire STATS and
        #: ``/metrics`` share one measurement per TTL window instead of
        #: stalling ingest per request.
        self._bytes_cache: Optional[Tuple[int, float]] = None
        self._bytes_cache_lock = threading.Lock()
        #: Monotonic stamps of the last completed drain cycle / idle EXT
        #: poll, feeding the ``/health`` freshness components.
        self._last_drain_at: Optional[float] = None
        self._last_poll_at: Optional[float] = None
        #: Slow-batch trace ring (see :mod:`repro.obs.trace`), wired as
        #: the kernel's ``on_slow_batch`` hook when ``slow_batch_ms`` is
        #: configured.
        self.slow_batch_log = SlowBatchLog()
        kernel_stats = getattr(self.checker, "kernel_stats", None)
        if kernel_stats is not None:
            kernel_stats.sample_every = self.config.kernel_sample_every
            if self.config.slow_batch_ms is not None:
                kernel_stats.slow_threshold = self.config.slow_batch_ms / 1000.0
                kernel_stats.on_slow_batch = self.slow_batch_log.record
        #: The metrics registry behind ``GET /metrics``.  The submit→
        #: verdict histogram is the only live-updated instrument (one
        #: ``observe`` per drained queue entry); everything else mirrors
        #: hot-path counters at scrape time, so enabling the sidecar
        #: costs the ingest path nothing.
        self.metrics = MetricsRegistry()
        self.latency = self.metrics.histogram(
            "repro_submit_to_verdict_seconds",
            "Latency from submit decode to post-verdict drain completion",
            DEFAULT_LATENCY_BUCKETS,
        )
        #: Observed once per completed GC cycle (never on the ingest path).
        self.gc_pause = self.metrics.histogram(
            "repro_gc_pause_seconds",
            "Duration of one GC cycle (evict + spill), ingest stalled meanwhile",
            DEFAULT_LATENCY_BUCKETS,
        )
        self._build_metric_families()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind the configured listeners and start the drain loop."""
        self._queue = _IngestQueue(self.config.queue_capacity)
        self.started_at = time.monotonic()
        if self.config.port is not None:
            server = await asyncio.start_server(
                self._handle_connection,
                host=self.config.host,
                port=self.config.port,
                limit=_MAX_LINE_BYTES,
            )
            self._servers.append(server)
            self.tcp_address = server.sockets[0].getsockname()[:2]
        if self.config.unix_path is not None:
            server = await asyncio.start_unix_server(
                self._handle_connection,
                path=str(self.config.unix_path),
                limit=_MAX_LINE_BYTES,
            )
            self._servers.append(server)
            self.unix_path = str(self.config.unix_path)
        if self.config.http_port is not None:
            self._http = HttpSidecar(
                self.config.host,
                self.config.http_port,
                {
                    "/metrics": self._http_metrics,
                    "/health": self._http_health,
                    "/stats": self._http_stats,
                },
            )
            await self._http.start()
            self.http_address = self._http.address
        self._drain_task = asyncio.get_running_loop().create_task(self._drain_loop())
        if math.isfinite(self.config.timeout):
            # A finite EXT timeout arms real-clock deadlines that must
            # fire even when no transactions arrive — the drain loop only
            # polls after a batch, so an idle wire needs this tick.
            self._tick_task = asyncio.get_running_loop().create_task(self._tick_loop())

    async def wait_closed(self) -> None:
        """Block until a graceful shutdown completes."""
        await self._stopped.wait()

    async def shutdown(self) -> CheckResult:
        """Graceful stop: drain, finalize, broadcast, disconnect.

        Safe to call more than once (later callers await the first
        shutdown and receive the same final result).
        """
        if self._shutting_down:
            assert self._shutdown_done is not None
            return await asyncio.shield(self._shutdown_done)
        self._shutting_down = True
        self._shutdown_done = asyncio.get_running_loop().create_task(self._shutdown_impl())
        return await asyncio.shield(self._shutdown_done)

    async def abort(self) -> None:
        """Ungraceful stop — the chaos harness's stand-in for a crash.

        Closes listeners and connections and cancels the drain/tick
        tasks without draining, finalizing, or saying goodbye: clients
        see a dead socket, exactly as after a SIGKILL.  Queued-but-
        unchecked transactions are dropped, and the in-memory session
        table dies with the process image — resuming clients get fresh
        sessions from this daemon's successor, which is why a restart
        supervisor must re-feed the acked prefix (see
        :mod:`repro.chaos.campaign`).
        """
        self._shutting_down = True
        try:
            for server in self._servers:
                server.close()
            if self._http is not None:
                self._http.close()
            for task in (self._drain_task, self._tick_task):
                if task is not None:
                    task.cancel()
                    try:
                        await task
                    except asyncio.CancelledError:
                        pass
            for writer in list(self._connections):
                self._close_writer(writer)
            # Clients must see a crash, but the host process should not
            # leak shard workers: release checker resources after the
            # sockets are already dead.
            close = getattr(self.checker, "close", None)
            if close is not None:
                try:
                    await self._run_checker(self._locked, close)
                except Exception:  # pragma: no cover - best-effort cleanup
                    pass
        finally:
            self._stopped.set()

    async def _shutdown_impl(self) -> CheckResult:
        # However shutdown ends — cleanly or with a raising finalize /
        # broadcast / close — _stopped must be set, or wait_closed()
        # (and `repro serve`, and ServiceThread.stop()) hangs forever on
        # a daemon that can no longer recover.
        try:
            return await self._shutdown_steps()
        finally:
            self._stopped.set()

    async def _shutdown_steps(self) -> CheckResult:
        # Stop accepting new connections.  Server.wait_closed() is never
        # awaited: since Python 3.12.1 it blocks until every connection
        # handler returns, and this coroutine is typically awaited *by*
        # a handler (a wire shutdown request) — a circular wait.  close()
        # alone already closes the listening sockets; remaining handler
        # cleanup happens when the loop exits.
        for server in self._servers:
            server.close()
        if self._http is not None:
            self._http.close()
        # Drain everything already admitted, then stop the drain loop.
        assert self._queue is not None
        await self._queue.join()
        if self._drain_task is not None:
            self._drain_task.cancel()
            try:
                await self._drain_task
            except asyncio.CancelledError:
                pass
        if self._tick_task is not None:
            self._tick_task.cancel()
            try:
                await self._tick_task
            except asyncio.CancelledError:
                pass
        # A submit handler suspended on a full queue can slip transactions
        # in after join() returned (its blocked put resumes once slots
        # free up).  They were acked, so they must be checked: keep
        # flushing until the queue stays empty across an event-loop
        # yield, which gives every woken putter its final turn.
        while True:
            leftovers: List[Tuple[Any, int, float]] = []
            total = 0
            while True:
                try:
                    item, weight, stamp = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                leftovers.append((item, weight, stamp))
                total += weight
            if leftovers:
                try:
                    for group in self._coalesce(leftovers):
                        await self._run_checker(self._ingest_locked, group)
                except Exception as exc:
                    self.ingest_errors += 1
                    self.last_ingest_error = f"{type(exc).__name__}: {exc}"
                self._queue.task_done(total)
                continue
            await asyncio.sleep(0)
            if self._queue.empty():
                break
        result = await self._run_checker(self._finalize_locked)
        self.final_result = result
        await self._broadcast(await self._run_checker(self._fresh_violation_messages))
        # Every open connection — subscribed or not — receives the final
        # result before its socket closes, so a client that requested the
        # shutdown reads the verdict it asked for.
        farewell = {"type": "result", **result_to_dict(result)}
        for writer in list(self._connections):
            self._send(writer, farewell)
            self._send(writer, {"type": "bye"})
        for writer in list(self._connections):
            self._close_writer(writer)
        close = getattr(self.checker, "close", None)
        if close is not None:
            await self._run_checker(self._locked, close)
        return result

    def _finalize_locked(self) -> CheckResult:
        with self._lock:
            return self.checker.finalize()

    def _locked(self, fn, *args: Any) -> Any:
        """Run ``fn`` under the ingest lock (for worker-thread dispatch).

        Every checker touch goes through a worker thread rather than
        acquiring the lock on the event loop: a large batch can hold the
        lock for a long time, and the loop must keep serving pings,
        stats, and fresh submissions meanwhile.
        """
        with self._lock:
            return fn(*args)

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    async def _drain_loop(self) -> None:
        """Pull queued transactions, check them in batches, push verdicts."""
        assert self._queue is not None
        queue = self._queue
        batch_size = self.config.batch_size
        while True:
            item, weight, stamp = await queue.get()
            items: List[Tuple[Any, int, float]] = [(item, weight, stamp)]
            total = weight
            while total < batch_size:
                try:
                    item, weight, stamp = queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                items.append((item, weight, stamp))
                total += weight
            try:
                try:
                    # One worker-thread hop checks every coalesced group
                    # AND polls for fresh violations — per-group dispatch
                    # plus a separate poll hop measurably costs wire
                    # throughput under GIL contention.
                    fresh = await self._run_checker(
                        self._ingest_groups_locked, self._coalesce(items)
                    )
                except Exception as exc:
                    # A rejected batch (e.g. a submitted append operation,
                    # which the online checkers refuse) must not kill the
                    # drain task — that would wedge every later drain /
                    # finalize / shutdown on queue.join().  Drop the
                    # batch, count it, keep draining.
                    self.ingest_errors += 1
                    self.last_ingest_error = f"{type(exc).__name__}: {exc}"
                    print(
                        f"repro.service: dropped a {total}-transaction batch: "
                        f"{self.last_ingest_error}",
                        file=sys.stderr,
                    )
                else:
                    done_at = time.monotonic()
                    self._last_drain_at = done_at
                    with self._throughput_lock:
                        self.throughput.record(done_at - self.started_at, total)
                    # Close the submit→verdict histogram: every queue
                    # entry was stamped at submit decode, and its
                    # verdicts (synchronous ones, plus this batch's
                    # re-evaluations) are emitted by the ingest hop that
                    # just returned.  Weighted by transactions so v1 and
                    # v2 producers aggregate comparably.
                    observe = self.latency.observe
                    for _item, item_weight, item_stamp in items:
                        if item_stamp > 0.0:
                            observe(done_at - item_stamp, item_weight)
                    try:
                        await self._maybe_collect()
                        await self._broadcast(fresh)
                    except Exception as exc:
                        # GC (which may spill to disk) or a push failing
                        # must not kill the drain task either — the batch
                        # was checked; losing a collection cycle or a
                        # push is recoverable, a dead drain task is not.
                        print(
                            f"repro.service: post-ingest step failed: "
                            f"{type(exc).__name__}: {exc}",
                            file=sys.stderr,
                        )
            finally:
                queue.task_done(total)

    @staticmethod
    def _coalesce(items: List[Tuple[Any, int, float]]) -> List[Any]:
        """Group drained queue entries into ``receive_many()`` calls.

        Runs of bare transactions merge into one list; a columnar batch
        is already a batch and passes through whole.  Arrival order is
        preserved across groups — that is what keeps wire verdicts
        identical to in-process checking when v1 and v2 producers mix.
        """
        groups: List[Any] = []
        run: Optional[List[Transaction]] = None
        for item, _weight, _stamp in items:
            if isinstance(item, ColumnarBatch):
                groups.append(item)
                run = None
            else:
                if run is None:
                    run = []
                    groups.append(run)
                run.append(item)
        return groups

    async def _tick_loop(self) -> None:
        """Fire due EXT-timeout verdicts while the wire is idle.

        ``poll()`` is the only place the EXT timer queue advances outside
        ingestion; without this tick a quiet stream would sit on expired
        timers until the next submit or finalize.
        """
        while True:
            await asyncio.sleep(self.config.poll_interval)
            try:
                await self._broadcast(await self._run_checker(self._fresh_violation_messages))
                self._last_poll_at = time.monotonic()
            except Exception as exc:
                print(
                    f"repro.service: idle poll failed: {type(exc).__name__}: {exc}",
                    file=sys.stderr,
                )

    def _ingest_locked(self, batch: Any) -> None:
        # ``batch`` is a list of transactions or a ColumnarBatch; the
        # checkers' receive_many accepts both.
        # ShardedAion ships its own thread-safe entry point (guarded by
        # the same ingest_lock the daemon uses for every other touch);
        # the single-shard checkers are wrapped here.
        receive = getattr(self.checker, "receive_many_threadsafe", None)
        if receive is not None:
            receive(batch)
        else:
            with self._lock:
                self.checker.receive_many(batch)

    def _ingest_groups_locked(self, groups: List[Any]) -> List[Dict[str, Any]]:
        """Check every coalesced group, then poll — one executor trip.

        A raised ingest error drops this drain cycle's remaining groups
        (matching the old per-group dispatch, where the first failure
        skipped the rest) and leaves any fresh violations to the next
        cycle's poll.
        """
        receive = getattr(self.checker, "receive_many_threadsafe", None)
        if receive is not None:
            for group in groups:
                receive(group)
        else:
            with self._lock:
                for group in groups:
                    self.checker.receive_many(group)
        return self._fresh_violation_messages()

    async def _run_checker(self, fn, *args: Any) -> Any:
        """Run a checker-touching callable on a worker thread.

        Keeps the event loop responsive while a batch is checked — other
        connections keep submitting (until the queue bound bites) and
        stats/ping stay answerable.
        """
        return await asyncio.get_running_loop().run_in_executor(None, fn, *args)

    async def _maybe_collect(self) -> None:
        if self.config.gc_threshold <= 0:
            return
        report = await self._run_checker(self._collect_locked)
        if report is not None:
            self.gc_cycles += 1
            self.gc_seconds += report.seconds
            self.gc_evicted["versions"] += report.evicted_versions
            self.gc_evicted["intervals"] += report.evicted_intervals
            self.gc_evicted["txns"] += report.evicted_txns
            self.gc_pause.observe(report.seconds)

    def _collect_locked(self):
        with self._lock:
            if self.checker.resident_txn_count < self.config.gc_threshold:
                return None
            target = self.checker.suggest_gc_ts(
                keep_recent=self.config.effective_gc_keep_recent
            )
            if target is None:
                return None
            return self.checker.collect_below(target)

    def _fresh_violation_messages(self) -> List[Dict[str, Any]]:
        with self._lock:
            fresh = self.checker.poll()
        self.pushed_violations += len(fresh)
        return [{"type": "violation", "violation": violation_to_dict(v)} for v in fresh]

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------

    def _welcome_message(self, version: int) -> Dict[str, Any]:
        offered = [1] if self.config.protocol == "v1" else [1, 2]
        return {
            "type": "welcome",
            "protocol": version,
            "protocols": offered,
            "checker": self.config.checker_kind,
            "level": self.config.level,
        }

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        v2_enabled = self.config.protocol != "v1"
        # The opening welcome is always a v1 line: a client cannot know
        # the server speaks v2 until this advertisement arrives.
        self._send(writer, self._welcome_message(PROTOCOL_VERSION))
        try:
            while True:
                # One byte of lookahead classifies the next message:
                # 0xA6 can never start an ndjson line, so it means a v2
                # frame; anything else is the first byte of a line.
                try:
                    first = await reader.readexactly(1)
                except asyncio.IncompleteReadError:
                    break
                if first[0] == FRAME_MAGIC0:
                    wire = self.wire["v2"]
                    if not v2_enabled:
                        wire["decode_errors"] += 1
                        self._send(
                            writer,
                            {"type": "error", "message": "protocol v2 is disabled"},
                        )
                        break
                    try:
                        header = first + await reader.readexactly(HEADER_SIZE - 1)
                    except asyncio.IncompleteReadError:
                        wire["decode_errors"] += 1
                        break
                    try:
                        frame_kind, length = decode_frame_header(header)
                    except ProtocolError as exc:
                        # A bad header means the stream position is lost;
                        # binary framing cannot resync, so close.
                        wire["decode_errors"] += 1
                        self._send(writer, {"type": "error", "message": str(exc)})
                        break
                    try:
                        payload = await reader.readexactly(length)
                    except asyncio.IncompleteReadError:
                        wire["decode_errors"] += 1
                        break
                    wire["frames_in"] += 1
                    wire["bytes_in"] += HEADER_SIZE + length
                    try:
                        message = decode_frame_payload(frame_kind, payload)
                    except ProtocolError as exc:
                        # The framing survived (length was honoured), so
                        # the connection can too — reject this message.
                        wire["decode_errors"] += 1
                        self._send(writer, {"type": "error", "message": str(exc)})
                        continue
                    if frame_kind == K_HELLO:
                        self._handle_hello(message, writer)
                        continue
                else:
                    try:
                        rest = await reader.readline()
                    except (asyncio.LimitOverrunError, ValueError):
                        self._send(writer, {"type": "error", "message": "line too long"})
                        break
                    line = first + rest
                    wire = self.wire["v1"]
                    wire["bytes_in"] += len(line)
                    line = line.strip()
                    if not line:
                        continue
                    wire["frames_in"] += 1
                    try:
                        message = decode_line(line)
                    except ProtocolError as exc:
                        wire["decode_errors"] += 1
                        self._send(writer, {"type": "error", "message": str(exc)})
                        continue
                if not await self._dispatch(message, writer):
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._subscribers.discard(writer)
            self._connections.discard(writer)
            self._conn_proto.pop(writer, None)
            # The session itself survives in _sessions: that is what a
            # reconnecting client resumes against.
            self._conn_session.pop(writer, None)
            self._close_writer(writer)

    def _handle_hello(self, message: Dict[str, Any], writer: asyncio.StreamWriter) -> None:
        """v2 handshake: flip this connection's send side to frames and
        confirm with a framed welcome — carrying session/resume state
        when the hello asked for it."""
        self._conn_proto[writer] = 2
        welcome = self._welcome_message(2)
        if "session_token" in message or "resume_from" in message:
            try:
                session, resumed = self._resolve_session(message)
            except ProtocolError as exc:
                # The framing survived, so the connection does too — the
                # offending hello is rejected without a session, and the
                # client must reconnect or re-hello to get one.
                self.resume_rejected += 1
                self._send(writer, {"type": "error", "message": str(exc)})
                return
            self._conn_session[writer] = session
            welcome = dict(
                welcome,
                session={
                    "token": session.token,
                    "acked_seq": session.acked_seq,
                    "resumed": resumed,
                },
            )
        self._send(writer, welcome)

    def _resolve_session(self, message: Dict[str, Any]) -> Tuple[_WireSession, bool]:
        """Look up or mint the resume session a hello asks for.

        Raises :class:`ProtocolError` for a malformed token, a malformed
        ``resume_from``, or a resume watermark ahead of the daemon's own
        (the client claims acks this daemon never sent — honouring it
        could double-ingest).  An unknown *well-formed* token opens a
        fresh session under a newly minted token: the daemon that issued
        the old token is gone (restart), and adopting a client-supplied
        token would let one producer squat another's session.
        """
        token = message.get("session_token")
        resume_from = message.get("resume_from")
        if resume_from is not None and (
            isinstance(resume_from, bool)
            or not isinstance(resume_from, int)
            or resume_from < 0
        ):
            raise ProtocolError(f"malformed resume_from {resume_from!r}")
        session: Optional[_WireSession] = None
        if token is not None:
            validate_session_token(token)
            session = self._sessions.get(token)
        if session is not None:
            if resume_from is not None and resume_from > session.acked_seq:
                raise ProtocolError(
                    f"resume_from {resume_from} is ahead of the daemon's "
                    f"acked watermark {session.acked_seq}"
                )
            self._sessions.move_to_end(token)
            session.resumes += 1
            self.session_resumes += 1
            self._resume_stamps.append(time.monotonic())
            return session, True
        session = _WireSession(new_session_token())
        self._sessions[session.token] = session
        self.sessions_issued += 1
        while len(self._sessions) > MAX_TRACKED_SESSIONS:
            self._sessions.popitem(last=False)
        return session, False

    async def _dispatch(self, message: Dict[str, Any], writer: asyncio.StreamWriter) -> bool:
        """Handle one request; returns False to close the connection."""
        kind = message["type"]
        seq = message.get("seq")
        if kind == "hello":
            return True
        if kind == "ping":
            self._send(writer, {"type": "pong", "seq": seq})
            return True
        if kind == "submit":
            return await self._handle_submit(message, writer)
        if kind == "subscribe":
            reply: Dict[str, Any] = {"type": "subscribed", "seq": seq}
            self._send(writer, reply)
            if message.get("replay"):
                # Backlog then membership, with no await in between —
                # broadcasts run on this same loop, so the backlog and
                # the live stream partition exactly.
                for push in self._violation_log:
                    self._send(writer, push)
            self._subscribers.add(writer)
            return True
        if kind == "stats":
            include_bytes = bool(message.get("bytes", True))
            stats = await self._run_checker(self.stats, include_bytes)
            self._send(writer, {"type": "stats", "seq": seq, "stats": stats})
            return True
        if kind == "drain":
            assert self._queue is not None
            await self._queue.join()
            processed = await self._run_checker(self._locked, lambda: self.checker.processed)
            self._send(writer, {"type": "drained", "seq": seq, "processed": processed})
            return True
        if kind == "finalize":
            assert self._queue is not None
            await self._queue.join()
            result = await self._run_checker(self._finalize_locked)
            await self._broadcast(await self._run_checker(self._fresh_violation_messages))
            self._send(writer, {"type": "result", "seq": seq, **result_to_dict(result)})
            return True
        if kind == "shutdown":
            # shutdown() sends the final result and a bye to every open
            # connection (this one included) before closing the sockets.
            await self.shutdown()
            return False
        self._send(writer, {"type": "error", "seq": seq, "message": f"unknown message type {kind!r}"})
        return True

    def _dedup_submit(
        self,
        seq: Optional[int],
        n_txns: int,
        writer: asyncio.StreamWriter,
    ) -> bool:
        """True when this submit was already admitted for the session.

        A resubmitted ``seq`` at or below the session watermark was
        ingested on a previous connection (only its ack was lost); it is
        acked again — flagged ``duplicate`` — without touching the
        queue, which is what makes reconnect-and-replay exactly-once.
        """
        session = self._conn_session.get(writer)
        if session is None or seq is None or seq > session.acked_seq:
            return False
        session.deduped_txns += n_txns
        self.resume_deduped_txns += n_txns
        self._send(
            writer,
            {"type": "ack", "seq": seq, "enqueued": n_txns, "duplicate": True},
        )
        return True

    def _advance_watermark(self, seq: Optional[int], writer: asyncio.StreamWriter) -> None:
        """Record a fully admitted submit in the session watermark."""
        session = self._conn_session.get(writer)
        if session is not None and seq is not None and seq > session.acked_seq:
            session.acked_seq = seq

    async def _handle_submit(self, message: Dict[str, Any], writer: asyncio.StreamWriter) -> bool:
        seq = message.get("seq")
        # Latency stamp taken once at decode: the histogram then measures
        # queue wait + checking, i.e. the daemon-side submit→verdict path.
        stamp = time.monotonic()
        if self._shutting_down:
            self._send(writer, {"type": "error", "seq": seq, "message": "service is shutting down"})
            return True
        batch = message.get("batch")
        if batch is not None:
            # v2 vectored submit: the frame decoded straight into a
            # ColumnarBatch.  Slice it to the checker's batch size and
            # enqueue the slices whole — they stay columnar through the
            # drain loop into receive_many.
            if len(batch) == 0:
                self._send(
                    writer,
                    {"type": "error", "seq": seq, "message": "submit carries no transactions"},
                )
                return True
            if self._dedup_submit(seq, len(batch), writer):
                return True
            assert self._queue is not None
            total = len(batch)
            admitted = 0
            for piece in batch.slices(self.config.batch_size):
                # Re-checked per slice: a shutdown can start while this
                # handler is suspended on a full queue.
                if self._shutting_down:
                    break
                await self._queue.put(piece, len(piece), stamp)
                admitted += len(piece)
            self.received += admitted
            if admitted < total:
                if seq is not None:
                    self._send(
                        writer,
                        {
                            "type": "error",
                            "seq": seq,
                            "message": f"service is shutting down; "
                            f"admitted {admitted} of {total} transactions",
                        },
                    )
            elif seq is not None:
                self._advance_watermark(seq, writer)
                self._send(writer, {"type": "ack", "seq": seq, "enqueued": admitted})
            return True
        raw = message.get("txns")
        if raw is None:
            single = message.get("txn")
            raw = [single] if single is not None else None
        if not isinstance(raw, list) or not raw:
            self._send(
                writer,
                {"type": "error", "seq": seq, "message": "submit carries no transactions"},
            )
            return True
        try:
            txns = [txn_from_dict(item) for item in raw]
        except (KeyError, TypeError, ValueError) as exc:
            self._send(
                writer,
                {"type": "error", "seq": seq, "message": f"malformed transaction: {exc!r}"},
            )
            return True
        if self._dedup_submit(seq, len(txns), writer):
            return True
        assert self._queue is not None
        admitted = 0
        for txn in txns:
            # Re-checked per transaction: a shutdown can start while this
            # handler is suspended on a full queue, and transactions
            # admitted past that point race the final drain.
            if self._shutting_down:
                break
            # Admission blocks when the queue is full: this reader stops
            # consuming its socket and the producer sees TCP backpressure.
            await self._queue.put(txn, 1, stamp)
            admitted += 1
        self.received += admitted
        if admitted < len(txns):
            if seq is not None:
                self._send(
                    writer,
                    {
                        "type": "error",
                        "seq": seq,
                        "message": f"service is shutting down; "
                        f"admitted {admitted} of {len(txns)} transactions",
                    },
                )
        elif seq is not None:
            self._advance_watermark(seq, writer)
            self._send(writer, {"type": "ack", "seq": seq, "enqueued": admitted})
        return True

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------

    def _send(self, writer: asyncio.StreamWriter, message: Dict[str, Any]) -> None:
        if writer.is_closing():
            return
        try:
            if self._conn_proto.get(writer) == 2:
                data = encode_json_frame(SERVER_KIND_OF_TYPE[message["type"]], message)
                wire = self.wire["v2"]
            else:
                data = encode_message(message)
                wire = self.wire["v1"]
            writer.write(data)
            wire["frames_out"] += 1
            wire["bytes_out"] += len(data)
        except (ConnectionResetError, BrokenPipeError, RuntimeError):
            self._subscribers.discard(writer)

    async def _broadcast(self, messages: List[Dict[str, Any]]) -> None:
        """Push ``messages`` to every subscriber without ever blocking.

        Never awaits a subscriber's socket — a consumer that stops
        reading must not stall checking for everyone else.  Bytes queue
        in the transport; a subscriber whose buffer outgrows
        :data:`_MAX_SUBSCRIBER_BUFFER` is shed instead of waited on.
        """
        self._violation_log.extend(messages)
        if not messages or not self._subscribers:
            return
        # One payload per codec, built lazily: most daemons have all
        # their subscribers on one protocol.
        payload_v1: Optional[bytes] = None
        payload_v2: Optional[bytes] = None
        for writer in list(self._subscribers):
            if writer.is_closing():
                self._subscribers.discard(writer)
                continue
            if self._conn_proto.get(writer) == 2:
                if payload_v2 is None:
                    payload_v2 = b"".join(
                        encode_json_frame(SERVER_KIND_OF_TYPE["violation"], m)
                        for m in messages
                    )
                payload = payload_v2
                wire = self.wire["v2"]
            else:
                if payload_v1 is None:
                    payload_v1 = b"".join(encode_message(m) for m in messages)
                payload = payload_v1
                wire = self.wire["v1"]
            try:
                writer.write(payload)
                wire["frames_out"] += len(messages)
                wire["bytes_out"] += len(payload)
                if writer.transport.get_write_buffer_size() > _MAX_SUBSCRIBER_BUFFER:
                    self._subscribers.discard(writer)
                    self._close_writer(writer)
                    print(
                        "repro.service: dropped a subscriber that stopped reading",
                        file=sys.stderr,
                    )
            except (ConnectionResetError, BrokenPipeError, RuntimeError):
                self._subscribers.discard(writer)

    def _close_writer(self, writer: asyncio.StreamWriter) -> None:
        try:
            if not writer.is_closing():
                writer.close()
        except RuntimeError:
            pass

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def _estimated_bytes_cached(self) -> int:
        """The checker's deep-size estimate, cached for ``stats_bytes_ttl``.

        The measurement itself is O(resident state) *under the ingest
        lock*; wire STATS requests and ``/metrics`` scrapes both land
        here, so one measurement per TTL window serves every consumer and
        a scrape loop cannot stall ingest.  Runs on a worker thread.
        """
        ttl = self.config.stats_bytes_ttl
        with self._bytes_cache_lock:
            cached = self._bytes_cache
            if cached is not None and ttl > 0 and time.monotonic() - cached[1] < ttl:
                return cached[0]
        with self._lock:
            value = self.checker.estimated_bytes()
        with self._bytes_cache_lock:
            self._bytes_cache = (value, time.monotonic())
        return value

    def _recent_resumes(self, now: float) -> int:
        """Session resumes inside the sliding resume-storm window.

        The stamp deque is appended on the event loop but read here from
        worker threads too (``stats()``); copy before filtering so a
        concurrent append cannot fault the iteration.
        """
        while True:
            try:
                stamps = list(self._resume_stamps)
                break
            except RuntimeError:  # pragma: no cover - appended mid-copy
                continue
        cutoff = now - self.config.resume_storm_window
        return sum(1 for stamp in stamps if stamp >= cutoff)

    def stats(self, include_bytes: bool = True) -> Dict[str, Any]:
        """Counters for the ``STATS`` request (and the CLI's summary).

        ``include_bytes=False`` skips ``estimated_bytes`` (a deep sizeof
        walk over all resident state — cached for ``stats_bytes_ttl``
        seconds, so repeated requests inside the window cost nothing) —
        the cheap mode for a monitoring poller on a hot daemon; the wire
        request opts out with ``{"type": "stats", "bytes": false}``.
        """
        estimated_bytes = self._estimated_bytes_cached() if include_bytes else None
        with self._lock:
            resident = self.checker.resident_txn_count
            processed = self.checker.processed
            violations = len(self.checker.result.violations)
            # Batch-kernel checkers expose per-stage op counters; offline
            # wrappers (Chronos) do not — report null rather than omit so
            # pollers see a stable schema.
            kernel_stats = getattr(self.checker, "kernel_stats", None)
            kernel = kernel_stats.as_dict() if kernel_stats is not None else None
            # Per-shard rows carry their own scan counters; reuse them
            # for the aggregate figures instead of issuing a second
            # control-plane round trip per shard.
            shard_stats = getattr(self.checker, "shard_stats", None)
            shards = shard_stats() if shard_stats is not None else None
            if shards is not None:
                scan_steps = sum(row["scan_steps"] for row in shards)
                gc_scan_steps = sum(row["gc_scan_steps"] for row in shards)
            else:
                scan_fn = getattr(self.checker, "scan_step_totals", None)
                scan_steps, gc_scan_steps = scan_fn() if scan_fn is not None else (0, 0)
            debt_fn = getattr(self.checker, "gc_debt", None)
            gc_debt = debt_fn() if debt_fn is not None else 0
            spill = getattr(self.checker, "spill_store", None)
        queue_depth = self._queue.qsize() if self._queue is not None else 0
        queue_high_water = self._queue.high_water if self._queue is not None else 0
        with self._throughput_lock:
            throughput = self.throughput.snapshot()
        return {
            "protocol": PROTOCOL_VERSION,
            "protocols": [1] if self.config.protocol == "v1" else [1, 2],
            "wire": {codec: dict(counters) for codec, counters in self.wire.items()},
            "checker": self.config.checker_kind,
            "level": self.config.level,
            "uptime_s": round(time.monotonic() - self.started_at, 3),
            "received": self.received,
            "processed": processed,
            "queue_depth": queue_depth,
            "queue_high_water": queue_high_water,
            "queue_capacity": self.config.queue_capacity,
            "resident_txns": resident,
            "violations": violations,
            "subscribers": len(self._subscribers),
            "connections": len(self._connections),
            "sessions": {
                "tracked": len(self._sessions),
                "attached": len(self._conn_session),
                "issued": self.sessions_issued,
                "resumes": self.session_resumes,
                "recent_resumes": self._recent_resumes(time.monotonic()),
                "deduped_txns": self.resume_deduped_txns,
                "rejected": self.resume_rejected,
            },
            "estimated_bytes": estimated_bytes,
            "ingest_errors": self.ingest_errors,
            "last_ingest_error": self.last_ingest_error,
            "throughput": throughput,
            "kernel": kernel,
            "latency": self.latency.summary(),
            "interval_scan_steps": scan_steps,
            "interval_gc_scan_steps": gc_scan_steps,
            "gc": {
                "cycles": self.gc_cycles,
                "seconds": round(self.gc_seconds, 6),
                "threshold": self.config.gc_threshold,
                "debt": gc_debt,
                "pause": self.gc_pause.summary(),
                "evicted": dict(self.gc_evicted),
                "spill_bytes": spill.bytes_written if spill is not None else 0,
                "reloads": spill.reload_count if spill is not None else 0,
            },
            "shards": shards,
            "lanes": {
                "frames": getattr(self.checker, "lane_frames", 0),
                "fallbacks": getattr(self.checker, "lane_fallbacks", 0),
            },
            "slow_batches": {
                "total": self.slow_batch_log.total,
                "recent": self.slow_batch_log.tail(3),
            },
        }

    def health(self) -> Tuple[bool, Dict[str, Any]]:
        """Componentized liveness: ``(overall ok, JSON-ready detail)``.

        Designed to run on the event loop without touching the checker
        (no ingest-lock hop): every input is either task state or a
        counter the loop thread already owns.  Components:

        - ``drain`` — the drain task exists and has not died.  A dead
          drain task means acked transactions will never be checked.
        - ``backlog`` — the violation replay backlog has room.  At
          capacity, late subscribers silently lose history.
        - ``queue`` — depth vs. capacity (reported, never failing:
          a full queue is backpressure doing its job).
        - ``ext_timer`` — with a finite EXT timeout, the idle poll task
          is alive and has polled recently; on an infinite timeout the
          component is reported as disabled and always healthy.
        - ``resume_storm`` — session resumes inside the sliding
          ``resume_storm_window`` stay below the configured threshold.
          A storm means clients are flapping (reconnect churn), so
          verdict-latency expectations no longer hold.
        - ``shards`` — process-mode shard workers are all alive, and in
          shm mode each lane consumer's heartbeat is advancing (an
          alive-but-wedged consumer is unhealthy too); serial executors
          are trivially healthy.
        """
        now = time.monotonic()
        components: Dict[str, Dict[str, Any]] = {}

        drain_ok = self._drain_task is not None and not self._drain_task.done()
        drain_age = None if self._last_drain_at is None else round(now - self._last_drain_at, 3)
        components["drain"] = {
            "ok": drain_ok,
            "detail": "alive" if drain_ok else "drain task is not running",
            "last_batch_age_s": drain_age,
        }

        backlog_size = len(self._violation_log)
        backlog_cap = self._violation_log.maxlen or 0
        backlog_ok = backlog_size < backlog_cap
        components["backlog"] = {
            "ok": backlog_ok,
            "detail": "saturated — oldest replay entries are being dropped"
            if not backlog_ok
            else "has room",
            "size": backlog_size,
            "capacity": backlog_cap,
        }

        depth = self._queue.qsize() if self._queue is not None else 0
        components["queue"] = {
            "ok": True,
            "detail": "backpressure engaged" if depth >= self.config.queue_capacity else "flowing",
            "depth": depth,
            "capacity": self.config.queue_capacity,
            "high_water": self._queue.high_water if self._queue is not None else 0,
        }

        if math.isfinite(self.config.timeout):
            tick_ok = self._tick_task is not None and not self._tick_task.done()
            poll_age = None if self._last_poll_at is None else now - self._last_poll_at
            # Freshness bound: generous enough that one long drain batch
            # cannot flap the endpoint, tight enough that a wedged loop
            # is caught within seconds.
            stale_after = max(10 * self.config.poll_interval, 5.0)
            started_age = now - self.started_at
            fresh = (
                poll_age < stale_after
                if poll_age is not None
                else started_age < stale_after  # no poll due yet after start
            )
            components["ext_timer"] = {
                "ok": tick_ok and fresh,
                "detail": "polling"
                if tick_ok and fresh
                else ("tick task is not running" if not tick_ok else "polls are stale"),
                "poll_age_s": None if poll_age is None else round(poll_age, 3),
                "poll_interval_s": self.config.poll_interval,
            }
        else:
            components["ext_timer"] = {
                "ok": True,
                "detail": "disabled (infinite EXT timeout)",
            }

        recent_resumes = self._recent_resumes(now)
        storm = recent_resumes >= self.config.resume_storm_threshold
        components["resume_storm"] = {
            "ok": not storm,
            "detail": (
                f"{recent_resumes} session resumes in the last "
                f"{self.config.resume_storm_window:g}s"
                + (" — clients are flapping" if storm else "")
            ),
            "recent_resumes": recent_resumes,
            "window_s": self.config.resume_storm_window,
            "threshold": self.config.resume_storm_threshold,
        }

        workers_alive = getattr(self.checker, "workers_alive", None)
        shards_ok = True if workers_alive is None else workers_alive()
        if workers_alive is None or self.config.shard_executor == "serial":
            shard_detail = "in-process"
        elif shards_ok:
            shard_detail = "workers alive"
        else:
            # Distinguish a dead process from an alive-but-wedged lane
            # consumer: lane_health reads only shm heartbeat counters and
            # process liveness, so it is safe from the event loop.
            lane_health = getattr(self.checker, "lane_health", None)
            lanes = lane_health() if lane_health is not None else []
            dead = [row["shard"] for row in lanes if not row["alive"]]
            wedged = [row["shard"] for row in lanes if row["alive"] and row["stalled"]]
            if dead:
                shard_detail = f"shard workers died: {dead}"
            elif wedged:
                shard_detail = f"shard lane consumers are wedged: {wedged}"
            else:
                shard_detail = "a shard worker died"
        components["shards"] = {
            "ok": shards_ok,
            "detail": shard_detail,
            "n_shards": self.config.n_shards,
            "executor": self.config.shard_executor,
        }

        ok = all(component["ok"] for component in components.values())
        payload = {
            "status": "ok" if ok else "unhealthy",
            "checker": self.config.checker_kind,
            "uptime_s": round(now - self.started_at, 3),
            "shutting_down": self._shutting_down,
            "components": components,
        }
        return ok, payload

    # ------------------------------------------------------------------
    # Prometheus exposition
    # ------------------------------------------------------------------

    def _build_metric_families(self) -> None:
        """Register every exported family once, so ``/metrics`` presents a
        stable catalog from the first scrape (absent shards excepted)."""
        m = self.metrics
        self._m_uptime = m.gauge("repro_uptime_seconds", "Seconds since the daemon started")
        self._m_ingested = m.counter(
            "repro_ingested_txns_total", "Transactions admitted from the wire"
        )
        self._m_processed = m.counter(
            "repro_processed_txns_total", "Transactions checked by the online checker"
        )
        self._m_violations = m.counter(
            "repro_violations_total", "Violations found since startup"
        )
        self._m_pushed = m.counter(
            "repro_pushed_violations_total", "Violation messages pushed to subscribers"
        )
        self._m_ingest_errors = m.counter(
            "repro_ingest_errors_total", "Batches dropped by ingest errors"
        )
        self._m_queue_depth = m.gauge(
            "repro_queue_depth_txns", "Transaction-weighted ingest queue depth"
        )
        self._m_queue_high_water = m.gauge(
            "repro_queue_high_water_txns", "Deepest ingest queue depth ever reached"
        )
        self._m_queue_capacity = m.gauge(
            "repro_queue_capacity_txns", "Configured ingest queue capacity"
        )
        self._m_resident = m.gauge(
            "repro_resident_txns", "Transactions resident in checker memory"
        )
        self._m_resident_bytes = m.gauge(
            "repro_resident_bytes", "Deep-size estimate of checker state (TTL-cached)"
        )
        self._m_subscribers = m.gauge("repro_subscribers", "Connected violation subscribers")
        self._m_connections = m.gauge("repro_connections", "Open wire connections")
        self._m_sessions_tracked = m.gauge(
            "repro_sessions_tracked", "Resume sessions held in the daemon's LRU table"
        )
        self._m_sessions_issued = m.counter(
            "repro_sessions_issued_total", "Session tokens minted for hello handshakes"
        )
        self._m_session_resumes = m.counter(
            "repro_session_resumes_total",
            "Reconnects that resumed a known session token",
        )
        self._m_resume_deduped = m.counter(
            "repro_resume_deduped_txns_total",
            "Transactions skipped by (session, seq) dedup during resume replay",
        )
        self._m_resume_rejected = m.counter(
            "repro_resume_rejected_total",
            "Resume attempts rejected (malformed token or stale watermark)",
        )
        self._m_resume_recent = m.gauge(
            "repro_resume_recent",
            "Session resumes inside the resume-storm health window",
        )
        self._m_wire_frames = m.counter(
            "repro_wire_frames_total", "Wire messages by codec and direction", ("codec", "direction")
        )
        self._m_wire_bytes = m.counter(
            "repro_wire_bytes_total", "Wire bytes by codec and direction", ("codec", "direction")
        )
        self._m_wire_errors = m.counter(
            "repro_wire_decode_errors_total", "Undecodable wire messages by codec", ("codec",)
        )
        self._m_kernel_batches = m.counter(
            "repro_kernel_batches_total",
            "Batches routed through the staged kernel (a receive() call is a batch of one)",
        )
        self._m_kernel_txns = m.counter(
            "repro_kernel_txns_total", "Transactions decoded by the kernel route pass"
        )
        self._m_kernel_ops = m.counter(
            "repro_kernel_ops_total", "Kernel operations by stage counter", ("stage",)
        )
        self._m_kernel_stage_seconds = m.counter(
            "repro_kernel_stage_seconds_total",
            "Sampled wall time per kernel stage (see repro_kernel_timed_batches_total)",
            ("stage",),
        )
        self._m_kernel_timed = m.counter(
            "repro_kernel_timed_batches_total", "Batches whose stage timings were sampled"
        )
        self._m_kernel_slow = m.counter(
            "repro_kernel_slow_batches_total", "Batches exceeding the slow-batch threshold"
        )
        self._m_scan_steps = m.counter(
            "repro_interval_scan_steps_total", "Interval-index entries examined by overlap queries"
        )
        self._m_gc_scan_steps = m.counter(
            "repro_interval_gc_scan_steps_total", "Interval-index entries examined by GC sweeps"
        )
        self._m_gc_cycles = m.counter("repro_gc_cycles_total", "Completed GC cycles")
        self._m_gc_seconds = m.counter("repro_gc_seconds_total", "Wall time spent in GC")
        self._m_gc_debt = m.gauge(
            "repro_gc_debt",
            "Resident-index inserts deferred to the next GC cycle (its only up-front work)",
        )
        self._m_gc_evicted = {
            kind: m.counter(
                f"repro_gc_evicted_{kind}_total", f"Resident {kind} moved to spill segments"
            )
            for kind in self.gc_evicted
        }
        self._m_gc_spill_bytes = m.counter(
            "repro_gc_spill_bytes_total", "Bytes written to spill segments"
        )
        self._m_gc_reloads = m.counter(
            "repro_gc_reloads_total", "Spill segments read back on demand"
        )
        self._m_shard_versions = m.gauge(
            "repro_shard_versions", "Frontier versions held by one shard", ("shard",)
        )
        self._m_shard_intervals = m.gauge(
            "repro_shard_intervals", "Writer intervals held by one shard", ("shard",)
        )
        self._m_shard_ext_reads = m.gauge(
            "repro_shard_ext_reads", "External reads indexed by one shard", ("shard",)
        )
        self._m_shard_pending_removals = m.gauge(
            "repro_shard_pending_removals", "Deferred read removals owed to one shard", ("shard",)
        )
        self._m_shard_last_batch = m.gauge(
            "repro_shard_last_batch_commands",
            "Ops (external reads + writes) routed to one shard by the most recent batch",
            ("shard",),
        )
        self._m_lane_frames = m.counter(
            "repro_lane_frames_total",
            "Shard batches carried by shared-memory lane frames",
        )
        self._m_lane_fallbacks = m.counter(
            "repro_lane_fallbacks_total",
            "Shard batches that fell back to the pickled pipe path",
        )
        self._m_lane_heartbeat = m.gauge(
            "repro_shard_lane_heartbeat",
            "Lane consumer heartbeat sequence number for one shard",
            ("shard",),
        )
        self._m_lane_stalled = m.gauge(
            "repro_shard_lane_stalled",
            "1 when one shard's lane consumer looks wedged, else 0",
            ("shard",),
        )
        self._m_lane_backlog = m.gauge(
            "repro_shard_lane_backlog_bytes",
            "Unconsumed bytes across one shard's request and result rings",
            ("shard",),
        )
        self._m_lane_bytes = m.counter(
            "repro_shard_lane_bytes_total",
            "Bytes pushed through one shard's lane rings since startup",
            ("shard",),
        )

    def _render_metrics(self, stats: Dict[str, Any]) -> str:
        """Mirror a ``stats()`` snapshot into the registry and render it."""
        self._m_uptime.set(stats["uptime_s"])
        self._m_ingested.set_total(stats["received"])
        self._m_processed.set_total(stats["processed"])
        self._m_violations.set_total(stats["violations"])
        self._m_pushed.set_total(self.pushed_violations)
        self._m_ingest_errors.set_total(stats["ingest_errors"])
        self._m_queue_depth.set(stats["queue_depth"])
        self._m_queue_high_water.set(stats["queue_high_water"])
        self._m_queue_capacity.set(stats["queue_capacity"])
        self._m_resident.set(stats["resident_txns"])
        if stats["estimated_bytes"] is not None:
            self._m_resident_bytes.set(stats["estimated_bytes"])
        self._m_subscribers.set(stats["subscribers"])
        self._m_connections.set(stats["connections"])
        sessions = stats["sessions"]
        self._m_sessions_tracked.set(sessions["tracked"])
        self._m_sessions_issued.set_total(sessions["issued"])
        self._m_session_resumes.set_total(sessions["resumes"])
        self._m_resume_deduped.set_total(sessions["deduped_txns"])
        self._m_resume_rejected.set_total(sessions["rejected"])
        self._m_resume_recent.set(sessions["recent_resumes"])
        for codec, counters in stats["wire"].items():
            self._m_wire_frames.labels(codec, "in").set_total(counters["frames_in"])
            self._m_wire_frames.labels(codec, "out").set_total(counters["frames_out"])
            self._m_wire_bytes.labels(codec, "in").set_total(counters["bytes_in"])
            self._m_wire_bytes.labels(codec, "out").set_total(counters["bytes_out"])
            self._m_wire_errors.labels(codec).set_total(counters["decode_errors"])
        kernel = stats.get("kernel")
        if kernel is not None:
            self._m_kernel_batches.set_total(kernel["batches"])
            self._m_kernel_txns.set_total(kernel["txns"])
            for stage in (
                "route_ops",
                "probe_reads",
                "probe_writes",
                "verdict_tracks",
                "verdict_reevals",
                "verdict_conflicts",
            ):
                self._m_kernel_ops.labels(stage).set_total(kernel[stage])
            for stage in ("route", "probe", "verdict", "batch"):
                self._m_kernel_stage_seconds.labels(stage).set_total(
                    kernel[f"{stage}_seconds"]
                )
            self._m_kernel_timed.set_total(kernel["timed_batches"])
            self._m_kernel_slow.set_total(kernel["slow_batches"])
        self._m_scan_steps.set_total(stats["interval_scan_steps"])
        self._m_gc_scan_steps.set_total(stats["interval_gc_scan_steps"])
        self._m_gc_cycles.set_total(stats["gc"]["cycles"])
        self._m_gc_seconds.set_total(stats["gc"]["seconds"])
        self._m_gc_debt.set(stats["gc"]["debt"])
        for kind, total in stats["gc"]["evicted"].items():
            self._m_gc_evicted[kind].set_total(total)
        self._m_gc_spill_bytes.set_total(stats["gc"]["spill_bytes"])
        self._m_gc_reloads.set_total(stats["gc"]["reloads"])
        for row in stats.get("shards") or ():
            shard = str(row["shard"])
            self._m_shard_versions.labels(shard).set(row["versions"])
            self._m_shard_intervals.labels(shard).set(row["intervals"])
            self._m_shard_ext_reads.labels(shard).set(row["ext_reads"])
            self._m_shard_pending_removals.labels(shard).set(row["pending_removals"])
            self._m_shard_last_batch.labels(shard).set(row["last_batch_commands"])
            if "lane_heartbeat" in row:
                self._m_lane_heartbeat.labels(shard).set(row["lane_heartbeat"])
                self._m_lane_stalled.labels(shard).set(row["lane_stalled"])
                self._m_lane_backlog.labels(shard).set(row["lane_backlog_bytes"])
                self._m_lane_bytes.labels(shard).set_total(row["lane_bytes"])
        lanes = stats.get("lanes")
        if lanes is not None:
            self._m_lane_frames.set_total(lanes["frames"])
            self._m_lane_fallbacks.set_total(lanes["fallbacks"])
        return self.metrics.render()

    # ------------------------------------------------------------------
    # HTTP sidecar handlers
    # ------------------------------------------------------------------

    async def _http_metrics(self) -> Tuple[int, str, bytes]:
        stats = await self._run_checker(self.stats, True)
        body = self._render_metrics(stats).encode("utf-8")
        return 200, "text/plain; version=0.0.4; charset=utf-8", body

    async def _http_health(self) -> Tuple[int, str, bytes]:
        ok, payload = self.health()
        body = (json.dumps(payload, indent=2) + "\n").encode("utf-8")
        return (200 if ok else 503), "application/json", body

    async def _http_stats(self) -> Tuple[int, str, bytes]:
        stats = await self._run_checker(self.stats, True)
        body = (json.dumps(stats, indent=2, default=str) + "\n").encode("utf-8")
        return 200, "application/json", body


class ServiceThread:
    """Host a :class:`CheckerService` on a dedicated background thread.

    The blocking client library cannot share a thread with the daemon's
    event loop; this helper gives tests, benchmarks, and synchronous
    embedders a daemon that behaves like a separate process::

        with ServiceThread(ServiceConfig(port=0)) as handle:
            client = CheckerClient(*handle.tcp_address)
            ...

    ``stop()`` performs the daemon's graceful drain-then-finalize
    shutdown and returns the final :class:`CheckResult` (also reachable
    afterwards as ``handle.service.final_result`` when a client already
    shut the daemon down over the wire).
    """

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.service: Optional[CheckerService] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    def start(self, timeout: float = 30.0) -> "ServiceThread":
        self._thread = threading.Thread(target=self._run, name="repro-service", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout):
            raise TimeoutError("service thread did not start in time")
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # pragma: no cover - surfaced via start()
            if not self._ready.is_set():
                self._startup_error = exc
                self._ready.set()

    async def _main(self) -> None:
        self.service = CheckerService(self.config)
        self._loop = asyncio.get_running_loop()
        try:
            await self.service.start()
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        await self.service.wait_closed()

    @property
    def tcp_address(self) -> Tuple[str, int]:
        assert self.service is not None and self.service.tcp_address is not None
        return self.service.tcp_address

    @property
    def http_address(self) -> Tuple[str, int]:
        assert self.service is not None and self.service.http_address is not None
        return self.service.http_address

    def stop(self, timeout: float = 30.0) -> Optional[CheckResult]:
        """Gracefully stop the daemon; returns the final result."""
        if self._thread is None or self.service is None:
            return None
        if self._thread.is_alive() and self._loop is not None:
            try:
                future = asyncio.run_coroutine_threadsafe(self.service.shutdown(), self._loop)
                deadline = time.monotonic() + timeout
                while True:
                    try:
                        future.result(0.2)
                        break
                    except FutureTimeout:
                        # A loop that finished between the is_alive()
                        # check and the hand-off never runs the coroutine.
                        if not self._thread.is_alive():
                            future.cancel()
                            break
                        if time.monotonic() >= deadline:
                            raise
            except RuntimeError:
                # The loop already exited (a client shut the daemon down).
                pass
        self._thread.join(timeout)
        return self.service.final_result

    def kill(self, timeout: float = 10.0) -> None:
        """Hard-stop the daemon — no drain, no finalize, no goodbyes.

        The chaos harness's stand-in for ``kill -9``: clients observe a
        dead socket mid-conversation and all daemon-side state (queued
        transactions, checker memory, session table) is lost.
        """
        if self._thread is None or self.service is None:
            return
        if self._thread.is_alive() and self._loop is not None:
            try:
                future = asyncio.run_coroutine_threadsafe(self.service.abort(), self._loop)
                future.result(timeout)
            except RuntimeError:
                # The loop already exited (a client shut the daemon down).
                pass
        self._thread.join(timeout)

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
