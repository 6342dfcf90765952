"""ShardedAion — a sharded, batch-oriented ingestion frontend for Aion.

Algorithm 3's per-arrival work decomposes cleanly by key: the versioned
frontier query of step ① , the interval-overlap query of step ② and the
EXT re-check sweep of step ③ each touch exactly the keys the arriving
transaction reads or writes.  Since every key is owned by exactly one
shard, hash-partitioning the three versioned structures
(:class:`~repro.core.versioned.VersionedFrontier`,
:class:`~repro.core.versioned.WriterIntervals`,
:class:`~repro.core.versioned.ExtReadIndex`) across N independent shard
states preserves the single-checker semantics exactly, while the
cross-key state — SESSION tracking, INT checking, the EXT timer queue,
violation aggregation, the resident set and GC — stays in a global
coordinator.

Ingestion is *batch oriented* and runs through the staged batch kernel
(PR 6): the collector ships transactions in batches (Fig 3), and
:meth:`ShardedAion.receive_many` **routes** the whole batch once into
per-shard *flat command arrays* (parallel ``tags``/``keys``/operand
lists — one integer tag per command instead of a tuple allocation per
command), **probes** by handing each shard its arrays to interpret in
one pass (serially in-process, or in parallel worker processes), and
applies a **verdict** pass that merges the shard results back in arrival
order.  The equivalence argument is short:

- per-key commands of one transaction are enqueued in the same order
  Aion executes them, and commands of transaction *i* precede those of
  transaction *j > i* in every shard stream, so each shard's structures
  go through exactly the states they would under sequential Aion;
- commands on different keys operate on disjoint state and commute;
- the coordinator applies global effects (EXT tracking, re-evaluation,
  conflict reports) by walking the batch in arrival order, so per-pair
  verdict updates happen in the sequential order as well.  Tracking the
  batch's external reads *before* applying its re-evaluations is safe
  because a shard's re-evaluation list for a write only contains reads
  that preceded the write in that key's stream — a pair tracked later
  can never appear in it.

Hence the final violation multiset equals single-shard Aion's — the
differential tests in ``tests/test_sharded.py`` demonstrate it.

The optional ``executor="process"`` mode keeps each shard's state in a
dedicated worker process connected by a pipe; a batch then dispatches all
shard command lists at once and the shards execute them in parallel,
free of the GIL.  Results (and therefore verdicts) are identical — only
where the commands run changes.

``executor="shm-process"`` keeps the same worker topology but moves the
data plane off the pickle pipe onto **shared-memory shard lanes**: per
shard, one request ring and one result ring
(:class:`~repro.core.shm.ShmRing`).  The coordinator packs each routed
flat stream *once* with the shared columnar codec
(:func:`~repro.core.colpack.pack_flat_frame`), the worker decodes the
frame in place from a ``memoryview`` into the ring — no pickle and no
receive-side copy on the request path — and answers with a compact
result frame on its result lane.  Fallback is graceful and per-batch:
streams carrying values the strict lane codec refuses or frames beyond
the ring's bound take the pipe path instead, and a result
that refuses strict encoding rides inside the worker's doorbell reply —
so verdicts are transport-independent by construction, not by luck.
Waiting is doorbell-driven in both directions (tiny fixed-size pipe
messages; both sides park in real blocking waits), so lanes cost no
busy-polling even on hosts with fewer cores than shards.  The
request-lane heartbeat doubles as a liveness signal:
:meth:`ShardedAion.workers_alive` detects a *wedged* (alive but
stalled) worker by watching the heartbeat freeze.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
import zlib
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.aion import AionConfig
from repro.core.colpack import (
    UnencodableValue,
    pack_flat_frame,
    pack_result_frame,
    result_kinds,
    unpack_flat_frame,
    unpack_result_frame,
)
from repro.core.common import BOTTOM, SessionTracker, values_match
from repro.core.ext_status import (
    EV_ACTUAL,
    EV_EXPECTED,
    EV_KEY,
    EV_SNAPSHOT_TS,
    EV_TID,
    ExtStatusTracker,
    ExtVerdict,
    FlipFlopStats,
)
from repro.core.kernel import KernelStats, resolve_writes
from repro.core.spill import SpillingGc
from repro.core.versioned import (
    ExtReadIndex,
    IntervalColumns,
    VersionColumns,
    VersionedFrontier,
    WriterIntervals,
    empty_columns,
)
from repro.core.violations import (
    Axiom,
    CheckResult,
    ConflictViolation,
    ExtViolation,
    IntViolation,
    TimestampOrderViolation,
    Violation,
)
from repro.histories.model import OpKind, Transaction
from repro.core.colpack import ColumnarBatch
from repro.util.sizeof import deep_sizeof

__all__ = ["ShardedAion", "shard_of"]


def shard_of(key: str, n_shards: int) -> int:
    """Stable key → shard routing (crc32; Python's ``hash`` is salted)."""
    return zlib.crc32(key.encode("utf-8")) % n_shards


# Integer tags of the flat shard command encoding.  A command is one row
# across the six parallel arrays (tags, keys, a, b, c, d); operand
# meaning per tag:
#
#   ==================  =====  ============  ============  =======  ======
#   tag                 key    a             b             c        d
#   ==================  =====  ============  ============  =======  ======
#   _READ_TRACK         key    snapshot_ts   tid           actual   —
#   _WRITE_PROBE        key    start_ts      commit_ts     tid      value
#   _REMOVE_READ        key    snapshot_ts   tid           —        —
#   _VISIBLE            key    snapshot_ts   —             —        —
#   _ADD_READ           key    snapshot_ts   tid           actual   —
#   _OVERLAP_ADD        key    start_ts      commit_ts     tid      —
#   _INSERT_RECHECK     key    commit_ts     value         tid      —
#   ==================  =====  ============  ============  =======  ======
#
# The router emits the fused rows (_READ_TRACK = visible probe + read
# registration, _WRITE_PROBE = overlap query + insert/recheck) — half
# the rows per batch of the two-row forms, which the interpreter still
# accepts.  The tag values are owned by :mod:`repro.core.colpack` (the
# lane frame codec speaks them on the wire); aliased here for the
# interpreter loop.
from repro.core.colpack import FLAT_VISIBLE as _VISIBLE
from repro.core.colpack import FLAT_ADD_READ as _ADD_READ
from repro.core.colpack import FLAT_REMOVE_READ as _REMOVE_READ
from repro.core.colpack import FLAT_OVERLAP_ADD as _OVERLAP_ADD
from repro.core.colpack import FLAT_INSERT_RECHECK as _INSERT_RECHECK
from repro.core.colpack import FLAT_READ_TRACK as _READ_TRACK
from repro.core.colpack import FLAT_WRITE_PROBE as _WRITE_PROBE

#: One shard's flat command stream: (tags, keys, a, b, c, d) lists.
_FlatStream = Tuple[
    List[int], List[str], List[Any], List[Any], List[Any], List[Any]
]


class _ShardCore:
    """One shard's versioned structures plus a command interpreter.

    The data plane speaks the *flat* encoding: five parallel arrays per
    batch (see the tag table above) that cross a process boundary as one
    pickle instead of one tuple per command, and that ``execute_flat``
    interprets in a single branch-per-tag loop.  Control-plane commands
    (evict, merge, sizeof, counts) remain plain tuples through
    ``execute`` — they are rare and payload-heavy, so flattening buys
    nothing.
    """

    __slots__ = ("frontier", "writers", "ext_reads")

    def __init__(self) -> None:
        self.frontier = VersionedFrontier()
        self.writers = WriterIntervals()
        self.ext_reads = ExtReadIndex()

    def execute_flat(
        self,
        tags: List[int],
        keys: List[str],
        a: List[Any],
        b: List[Any],
        c: List[Any],
        d: List[Any],
        optimized: bool,
    ) -> List[Any]:
        """Interpret one batch's flat command arrays for this shard.

        Returns only the *semantic* results (visible values, overlap
        hits, re-evaluation lists) in stream order — a fused write row
        contributes two slots (overlap hits, then re-evaluations);
        bookkeeping commands (add/remove read) emit no result
        slot, so the coordinator's merge walk consumes results with a
        plain sequential cursor — no None-skipping.
        """
        results: List[Any] = []
        append = results.append
        frontier = self.frontier
        writers = self.writers
        ext_reads = self.ext_reads
        value_at = frontier.value_at
        insert_and_next_ts = frontier.insert_and_next_ts
        collect_affected = ext_reads.collect_affected
        add_read = ext_reads.add
        overlap_add = writers.overlap_add

        def recheck(key: str, commit_ts: int, value: Any, tid: int) -> List[Tuple]:
            next_ts = insert_and_next_ts(key, commit_ts, value, tid)
            if optimized:
                return [
                    (reader_tid, actual == value, value)
                    for _sts, reader_tid, actual in collect_affected(
                        key, commit_ts, next_ts, tid
                    )
                ]
            reevals: List[Tuple[int, bool, Any]] = []
            for sts, reader_tid, actual in collect_affected(key, 0, None, tid):
                expected = value_at(key, sts, BOTTOM)
                reevals.append((reader_tid, values_match(expected, actual), expected))
            return reevals

        for i in range(len(tags)):
            tag = tags[i]
            key = keys[i]
            if tag == _READ_TRACK:
                append(value_at(key, a[i], BOTTOM))
                add_read(key, a[i], b[i], c[i])
            elif tag == _WRITE_PROBE:
                append(overlap_add(key, a[i], b[i], c[i]))
                append(recheck(key, b[i], d[i], c[i]))
            elif tag == _REMOVE_READ:
                ext_reads.remove(key, a[i], b[i])
            elif tag == _VISIBLE:
                append(value_at(key, a[i], BOTTOM))
            elif tag == _ADD_READ:
                add_read(key, a[i], b[i], c[i])
            elif tag == _OVERLAP_ADD:
                append(overlap_add(key, a[i], b[i], c[i]))
            elif tag == _INSERT_RECHECK:
                append(recheck(key, a[i], b[i], c[i]))
            else:  # pragma: no cover - guarded by the router
                raise ValueError(f"unknown flat command tag {tag!r}")
        return results

    def execute(self, commands: List[Tuple]) -> List[Any]:
        """Control-plane interpreter (GC eviction and reload, size
        estimation, counters)."""
        results: List[Any] = []
        for command in commands:
            op = command[0]
            if op == "evict":
                _, ts = command
                results.append((self.frontier.evict_below(ts), self.writers.evict_below(ts)))
            elif op == "merge":
                _, versions, intervals = command
                self.frontier.merge(versions)
                self.writers.merge(intervals)
                results.append(None)
            elif op == "sizeof":
                results.append(deep_sizeof((self.frontier, self.writers, self.ext_reads)))
            elif op == "counts":
                scan, gc_scan = self.writers.scan_step_totals()
                results.append(
                    {
                        "versions": len(self.frontier),
                        "intervals": len(self.writers),
                        "ext_reads": len(self.ext_reads),
                        "scan_steps": scan,
                        "gc_scan_steps": gc_scan,
                    }
                )
            else:  # pragma: no cover - guarded by the coordinator
                raise ValueError(f"unknown shard command {op!r}")
        return results


def _shard_worker(conn) -> None:
    """Process-mode loop: own one shard core, serve command batches.

    Messages are ``("flat", (tags, keys, a, b, c, optimized))`` for the
    data plane, ``("cmds", [...])`` for the control plane, and ``None``
    to stop.
    """
    # A terminal Ctrl+C delivers SIGINT to the whole foreground process
    # group, workers included.  The parent handles it (e.g. `repro
    # serve` drains gracefully); a worker dying mid-drain would turn
    # that graceful stop into dropped batches and a partial verdict.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass
    core = _ShardCore()
    try:
        while True:
            message = conn.recv()
            if message is None:
                break
            kind, payload = message
            if kind == "flat":
                conn.send(core.execute_flat(*payload))
            else:
                conn.send(core.execute(payload))
    except (EOFError, KeyboardInterrupt):  # pragma: no cover - teardown races
        pass
    finally:
        conn.close()


#: Doorbell the coordinator rings on the pipe after pushing a request
#: frame — a tiny fixed-size message that wakes a worker parked inside
#: ``conn.poll`` without carrying any data (the data is on the ring).
_NUDGE = ("nudge", None)

#: How long a worker parks in ``conn.poll`` per loop iteration when
#: idle.  Wake-ups are doorbell-driven, so this bounds only the
#: heartbeat cadence (and costs ~20 wake-ups/s per idle shard).
_PARK_SECONDS = 0.05


def _shard_worker_shm(conn, req_name: str, res_name: str) -> None:
    """Shm-mode loop: consume request-lane frames in place, answer on
    the result lane; the pipe carries doorbells, the control plane, and
    the fallback path.

    Waiting is doorbell-driven on both sides: the worker parks in
    ``conn.poll`` (a real blocking wait — no busy polling to steal the
    coordinator's CPU on starved hosts) and the coordinator rings the
    pipe after each ring push; symmetrically, every processed frame is
    answered with one tiny pipe message saying *where* the results are
    (``("lane", None)`` — frame on the result ring — or ``("pipe",
    results)`` when they refuse strict encoding or outgrow the ring), so
    the coordinator blocks in ``recv`` rather than spinning on the ring.
    The loop beats the request ring's heartbeat every iteration — busy
    or idle — so the coordinator can tell a wedged worker (heartbeat
    frozen beyond the park cadence) from an idle one.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass
    from repro.core.shm import ShmRing

    req = ShmRing.attach(req_name)
    res = ShmRing.attach(res_name)
    core = _ShardCore()
    try:
        while True:
            req.beat()
            view = req.try_pop()
            if view is not None:
                try:
                    tags, keys, a, b, c, d, optimized = unpack_flat_frame(view)
                finally:
                    req.consume()
                results = core.execute_flat(tags, keys, a, b, c, d, optimized)
                try:
                    frame = pack_result_frame(results, result_kinds(tags))
                except UnencodableValue:
                    frame = None
                if frame is not None and res.try_push(frame):
                    conn.send(("lane", None))
                else:
                    # Results refuse strict encoding or do not fit the
                    # ring right now: ship them inside the doorbell.
                    conn.send(("pipe", results))
                continue
            if conn.poll(_PARK_SECONDS):
                message = conn.recv()
                if message is None:
                    break
                kind, payload = message
                if kind == "flat":
                    conn.send(("pipe", core.execute_flat(*payload)))
                elif kind != "nudge":
                    conn.send(core.execute(payload))
    except (EOFError, OSError, KeyboardInterrupt):  # pragma: no cover - teardown
        pass
    finally:
        conn.close()
        req.close()
        res.close()


class ShardedAion(SpillingGc):
    """Online SI checker with hash-partitioned state and batch ingestion.

    Parameters
    ----------
    config:
        Shared :class:`~repro.core.aion.AionConfig` tunables.
    n_shards:
        Number of independent shard states (1 behaves like :class:`Aion`).
    clock:
        Zero-argument time source, as for :class:`Aion`.
    executor:
        ``"serial"`` executes shard command lists in-process;
        ``"process"`` pins each shard to a dedicated worker process and
        executes a batch's shard lists in parallel over pickle pipes;
        ``"shm-process"`` keeps the worker topology but moves batches
        over shared-memory lanes (see the module docstring).  Verdicts
        are identical across all three.
    lane_capacity:
        Bytes per shared-memory ring (request and result lanes each),
        ``shm-process`` only.  A frame above ``capacity // 2 - 8`` falls
        back to the pipe; the default comfortably holds the largest
        default-sized batch.
    lane_stall_timeout:
        Seconds without a heartbeat tick before
        :meth:`workers_alive` declares a lane consumer wedged.  Must
        exceed the longest legitimate single-batch execution.
    """

    def __init__(
        self,
        config: Optional[AionConfig] = None,
        *,
        n_shards: int = 4,
        clock: Optional[Callable[[], float]] = None,
        executor: str = "serial",
        lane_capacity: int = 1 << 20,
        lane_stall_timeout: float = 5.0,
    ) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if executor not in ("serial", "process", "shm-process"):
            raise ValueError(f"unknown executor {executor!r}")
        self.config = config or AionConfig()
        self.n_shards = n_shards
        self.executor = executor
        self._clock = clock if clock is not None else time.monotonic
        self._sessions = SessionTracker(mode="si")
        self._ext = ExtStatusTracker(
            timeout=self.config.timeout,
            on_violation=self._report_ext_violation,
            on_finalized_batch=self._drop_finalized_reads,
        )
        self._kernel_stats = KernelStats()
        self._result = CheckResult()
        self._fresh: List[Violation] = []
        self._init_gc()
        self.processed = 0
        #: Serializes checker access when ingestion happens off-thread
        #: (the service daemon drains batches on a worker thread while
        #: its event loop reads stats): hold it around any receive /
        #: poll / GC / finalize sequence that must not interleave.  The
        #: checker itself never blocks on it — single-threaded use pays
        #: nothing.
        self.ingest_lock = threading.Lock()
        #: (key, snapshot_ts, tid) read removals owed to shards, flushed
        #: as remove-read rows at the head of the next batch's flat
        #: streams (re-evaluating a finalized pair is a tracker no-op, so
        #: deferred removal cannot change verdicts — it only bounds index
        #: growth).
        self._pending_removals: List[List[Tuple[str, int, int]]] = [
            [] for _ in range(n_shards)
        ]
        #: Flat-stream command count per shard for the most recent batch —
        #: the cheap per-shard load-skew signal :meth:`shard_stats` and the
        #: slow-batch trace export.
        self._last_batch_commands: List[int] = [0] * n_shards
        self._cores: Optional[List[_ShardCore]] = None
        self._workers: List[multiprocessing.Process] = []
        self._conns: List[Any] = []
        #: Per shard ``(request_ring, result_ring)`` in shm mode.
        self._lanes: List[Tuple[Any, Any]] = []
        #: Length-prefixed UTF-8 key encodings, memoized across lane
        #: frames (the coordinator packs the same key space every batch).
        self._key_bytes: Dict[str, bytes] = {}
        #: Per shard ``(heartbeat, monotonic observed-at)`` — the wedge
        #: detector's memory of the last heartbeat movement.
        self._hb_seen: List[Tuple[int, float]] = []
        self.lane_capacity = lane_capacity
        self.lane_stall_timeout = lane_stall_timeout
        #: Batches moved over the lanes vs. batches that took the pipe
        #: fallback (per shard stream, cumulative).
        self.lane_frames = 0
        self.lane_fallbacks = 0
        if executor == "serial":
            self._cores = [_ShardCore() for _ in range(n_shards)]
        else:
            use_lanes = executor == "shm-process"
            if use_lanes:
                from repro.core.shm import ShmRing, shm_available

                if not shm_available():
                    raise RuntimeError(
                        "executor='shm-process' requires working POSIX shared "
                        "memory (multiprocessing.shared_memory); use "
                        "executor='process' on this platform"
                    )
            ctx = multiprocessing.get_context()
            for _ in range(n_shards):
                parent_conn, child_conn = ctx.Pipe()
                if use_lanes:
                    req = ShmRing.create(lane_capacity)
                    res = ShmRing.create(lane_capacity)
                    worker = ctx.Process(
                        target=_shard_worker_shm,
                        args=(child_conn, req.name, res.name),
                        daemon=True,
                    )
                    self._lanes.append((req, res))
                    self._hb_seen.append((0, time.monotonic()))
                else:
                    worker = ctx.Process(
                        target=_shard_worker, args=(child_conn,), daemon=True
                    )
                worker.start()
                child_conn.close()
                self._workers.append(worker)
                self._conns.append(parent_conn)

    # ------------------------------------------------------------------
    # Receiving transactions
    # ------------------------------------------------------------------

    def receive(self, txn: Transaction) -> None:
        """Process one transaction (a batch of one)."""
        self.receive_many([txn])

    def receive_many(self, txns: List[Transaction]) -> None:
        """Process a batch of arrivals sharing one arrival instant.

        Equivalent to feeding the batch one-by-one into single-shard Aion
        under a clock frozen for the batch's duration; see the module
        docstring for the argument.  This is the sharded face of the
        staged batch kernel: route once into per-shard flat arrays,
        probe each shard in one pass, apply the verdicts in arrival
        order.
        """
        if isinstance(txns, ColumnarBatch):
            # The sharded router materializes eagerly: lazy transactions
            # would drag the whole batch's arrays through the process-pool
            # pickling of the shard commands.
            txns = txns.transactions()
        elif not isinstance(txns, (list, tuple)):
            txns = list(txns)
        for txn in txns:
            for op in txn.ops:
                if op.kind is OpKind.APPEND:
                    raise ValueError(
                        "ShardedAion checks key-value histories online; list "
                        "(append) histories are checked offline by Chronos"
                    )
        now = self._clock()
        self._ext.advance_to(now)
        if not txns:
            return
        stats = self._kernel_stats
        perf_counter = time.perf_counter
        timing = stats.timing_enabled()
        track_total = timing or stats.slow_threshold > 0.0
        t_batch0 = perf_counter() if track_total else 0.0
        stats.batches += 1
        stats.txns += len(txns)
        if len(txns) > stats.max_batch:
            stats.max_batch = len(txns)

        t_route0 = perf_counter() if timing else 0.0
        streams: List[_FlatStream] = [
            ([], [], [], [], [], []) for _ in range(self.n_shards)
        ]
        for shard, removals in enumerate(self._pending_removals):
            if removals:
                tags, keys, a, b, c, d = streams[shard]
                for key, snapshot_ts, tid in removals:
                    tags.append(_REMOVE_READ)
                    keys.append(key)
                    a.append(snapshot_ts)
                    b.append(tid)
                    c.append(None)
                    d.append(None)
                self._pending_removals[shard] = []

        plan = self._route_batch(txns, streams)
        self._last_batch_commands = [len(stream[0]) for stream in streams]
        if timing:
            t_probe0 = perf_counter()
            stats.route_seconds += t_probe0 - t_route0
        else:
            t_probe0 = 0.0
        shard_results = self._execute(streams)
        if timing:
            t_verdict0 = perf_counter()
            stats.probe_seconds += t_verdict0 - t_probe0
        else:
            t_verdict0 = 0.0
        self._merge(plan, shard_results, now)
        if track_total:
            t_end = perf_counter()
            total = t_end - t_batch0
            if timing:
                stats.timed_batches += 1
                stats.verdict_seconds += t_end - t_verdict0
                stats.batch_seconds += total
            if stats.slow_threshold > 0.0 and total >= stats.slow_threshold:
                stats.record_slow(
                    {
                        "checker": "sharded-aion",
                        "seconds": round(total, 6),
                        "batch_txns": len(txns),
                        "shard_commands": list(self._last_batch_commands),
                        "route_s": round(t_probe0 - t_route0, 6) if timing else None,
                        "probe_s": round(t_verdict0 - t_probe0, 6) if timing else None,
                        "verdict_s": round(t_end - t_verdict0, 6) if timing else None,
                    }
                )

    def receive_many_threadsafe(self, txns: List[Transaction]) -> None:
        """Batch ingestion under :attr:`ingest_lock` — the entry point
        for multi-threaded frontends (one batch at a time wins the lock;
        shard-level parallelism still applies inside the batch)."""
        with self.ingest_lock:
            self.receive_many(txns)

    def _route_batch(
        self, txns: List[Transaction], streams: List[_FlatStream]
    ) -> List[Tuple[Transaction, Optional[List[Tuple]]]]:
        """Route pass: decode the batch into per-shard flat command
        arrays; report order-independent violations (Eq. 1, SESSION, INT)
        as they are discovered.

        Returns, per transaction, the descriptor list the verdict phase
        walks — None when the transaction was rejected by Eq. 1 and owns
        no shard commands.
        """
        plan: List[Tuple[Transaction, Optional[List[Tuple]]]] = []
        stats = self._kernel_stats
        n_shards = self.n_shards
        n_reads = 0
        n_writes = 0
        for txn in txns:
            tid = txn.tid
            stats.route_ops += len(txn.ops)
            if txn.start_ts > txn.commit_ts:  # Eq. 1
                self._report(
                    TimestampOrderViolation(
                        axiom=Axiom.TS_ORDER,
                        tid=tid,
                        start_ts=txn.start_ts,
                        commit_ts=txn.commit_ts,
                    )
                )
                plan.append((txn, None))
                continue

            # Severely delayed transaction below the GC boundary: merge
            # ALL spilled state back into the shards (Aion's reload-on-
            # demand, ▧) before this batch's streams execute — hoisting is
            # verdict-equivalent, see Aion.receive_many.  The unoptimized
            # ablation also re-checks arbitrarily old snapshot points on
            # every write, so it reloads whenever spilled state exists.
            if self._spill is not None and len(self._spill) > 0:
                below_boundary = (
                    self._collected_upto is not None
                    and txn.start_ts <= self._collected_upto
                )
                ablation_write = not self.config.optimized_recheck and any(
                    op.kind is OpKind.WRITE for op in txn.ops
                )
                if below_boundary or ablation_write:
                    self._reload_below(None)

            violation = self._sessions.observe(txn)
            if violation is not None:
                self._report(violation)

            # INT is key-local: a mismatch compares a read against the
            # transaction's own prior state, so no shard query is needed
            # (snapshot values feed only EXT, handled below).
            writes, mismatches = resolve_writes(txn.ops)
            if mismatches is not None:
                for key, expected, actual in mismatches:
                    self._report(
                        IntViolation(
                            axiom=Axiom.INT,
                            tid=tid,
                            key=key,
                            expected=expected,
                            actual=actual,
                        )
                    )

            start_ts = txn.start_ts
            commit_ts = txn.commit_ts
            steps: List[Tuple] = []
            for key, op in txn.external_reads.items():
                shard = shard_of(key, n_shards)
                tags, keys, a, b, c, d = streams[shard]
                tags.append(_READ_TRACK)
                keys.append(key)
                a.append(start_ts)
                b.append(tid)
                c.append(op.value)
                d.append(None)
                steps.append(("track", shard, key, op.value))
            n_reads += len(steps)
            for key, value in writes.items():
                shard = shard_of(key, n_shards)
                tags, keys, a, b, c, d = streams[shard]
                tags.append(_WRITE_PROBE)
                keys.append(key)
                a.append(start_ts)
                b.append(commit_ts)
                c.append(tid)
                d.append(value)
                steps.append(("conflicts", shard, key))
                steps.append(("reevals", shard, key))
            n_writes += len(writes)
            plan.append((txn, steps))
        stats.probe_reads += n_reads
        stats.probe_writes += n_writes
        return plan

    def _execute(self, streams: List[_FlatStream]) -> List[List[Any]]:
        optimized = self.config.optimized_recheck
        if self._cores is not None:
            return [
                core.execute_flat(*stream, optimized)
                for core, stream in zip(self._cores, streams)
            ]
        if self._lanes:
            return self._execute_shm(streams, optimized)
        # Process mode: dispatch every non-empty stream, then collect —
        # the workers interpret their arrays concurrently.
        dispatched = []
        for shard, stream in enumerate(streams):
            if stream[0]:
                self._conns[shard].send(("flat", stream + (optimized,)))
                dispatched.append(shard)
        results: List[List[Any]] = [[] for _ in range(self.n_shards)]
        for shard in dispatched:
            results[shard] = self._conns[shard].recv()
        return results

    def _execute_shm(
        self, streams: List[_FlatStream], optimized: bool
    ) -> List[List[Any]]:
        """Dispatch a batch over the shared-memory lanes.

        Per shard stream the transport is chosen independently: streams
        with operands the codec rejects or frames the ring cannot hold
        fall back to the pickle pipe — the worker serves both
        sources, and because every batch fully drains before the next
        dispatch (and before any control-plane command), lane and pipe
        traffic never interleave within a shard.
        """
        dispatched: List[int] = []
        for shard, stream in enumerate(streams):
            tags = stream[0]
            if not tags:
                continue
            try:
                frame = pack_flat_frame(*stream, optimized, self._key_bytes)
            except UnencodableValue:
                frame = None
            try:
                if frame is not None and self._lanes[shard][0].try_push(frame):
                    self._conns[shard].send(_NUDGE)
                    self.lane_frames += 1
                else:
                    self._conns[shard].send(("flat", stream + (optimized,)))
                    self.lane_fallbacks += 1
            except (BrokenPipeError, OSError):
                raise RuntimeError(f"shard worker {shard} died mid-batch") from None
            dispatched.append(shard)
        results: List[List[Any]] = [[] for _ in range(self.n_shards)]
        for shard in dispatched:
            kind, payload = self._recv_data(shard)
            if kind == "pipe":
                results[shard] = payload
            else:  # "lane": the result frame is on the ring by now
                result_ring = self._lanes[shard][1]
                view = result_ring.try_pop()
                if view is None:  # pragma: no cover - protocol violation
                    raise RuntimeError(
                        f"shard worker {shard} announced a lane result "
                        "that is not on the ring"
                    )
                try:
                    results[shard] = unpack_result_frame(view)
                finally:
                    result_ring.consume()
        return results

    def _recv_data(self, shard: int) -> Tuple[str, Any]:
        """Receive one data-plane doorbell from a shard worker.

        Blocks in bounded ``poll`` slices so a worker that died
        mid-batch surfaces as a :class:`RuntimeError` instead of a hang
        (a closed pipe raises ``EOFError`` inside ``recv`` as well).
        """
        conn = self._conns[shard]
        worker = self._workers[shard]
        while not conn.poll(0.2):
            if not worker.is_alive():
                raise RuntimeError(f"shard worker {shard} died mid-batch")
        try:
            return conn.recv()
        except EOFError:
            raise RuntimeError(f"shard worker {shard} died mid-batch") from None

    def _merge(
        self,
        plan: List[Tuple[Transaction, Optional[List[Tuple]]]],
        shard_results: List[List[Any]],
        now: float,
    ) -> None:
        """Verdict pass: apply global effects in arrival order.

        Shards return exactly one result per semantic command (visible /
        overlap_add / insert_recheck) in stream order, and the route pass
        enqueued those commands in exactly the order the step walk
        requests them, so a plain sequential per-shard cursor stays
        aligned.  The walk first gathers every external read's initial
        verdict and registers them in one :meth:`~repro.core.ext_status.
        ExtStatusTracker.track_batch` call, then applies conflict reports
        and re-evaluations per transaction in arrival order — safe
        because a shard's re-evaluation list for a write only names reads
        that preceded the write in that key's stream.
        """
        cursors = [0] * self.n_shards
        track_items: List[Tuple[int, str, int, Any, bool, Any]] = []
        #: per accepted txn: (txn, [(is_reeval, key, payload), ...])
        effects: List[Tuple[Transaction, List[Tuple[bool, str, List]]]] = []
        for txn, steps in plan:
            if steps is None:
                continue
            tid = txn.tid
            start_ts = txn.start_ts
            applied: List[Tuple[bool, str, List]] = []
            for step in steps:
                kind, shard, key = step[0], step[1], step[2]
                cursor = cursors[shard]
                cursors[shard] = cursor + 1
                result = shard_results[shard][cursor]
                if kind == "track":
                    actual = step[3]
                    ok = (
                        (actual is None)
                        if result is BOTTOM
                        else (result == actual)
                    )
                    track_items.append((tid, key, start_ts, actual, ok, result))
                elif result:
                    applied.append((kind == "reevals", key, result))
            effects.append((txn, applied))

        ext = self._ext
        ext.track_batch(track_items, now)
        stats = self._kernel_stats
        stats.verdict_tracks += len(track_items)
        reevaluate = ext.reevaluate
        resident = self._resident
        pending_cts = self._resident_cts_pending.append
        n_reevals = 0
        n_conflicts = 0
        armed: List[int] = []
        for txn, applied in effects:
            tid = txn.tid
            for is_reeval, key, payload in applied:
                if is_reeval:
                    n_reevals += len(payload)
                    for reader_tid, ok, expected in payload:
                        reevaluate(reader_tid, key, ok, expected, now)
                else:
                    n_conflicts += len(payload)
                    for owner, end in payload:
                        self._report_conflict(txn, owner, end, key)
            resident[tid] = txn
            pending_cts((txn.commit_ts, tid))
            self.processed += 1
            armed.append(tid)
        stats.verdict_reevals += n_reevals
        stats.verdict_conflicts += n_conflicts
        ext.arm_timers(armed, now)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def poll(self) -> List[Violation]:
        """Drain violations reported since the previous poll."""
        self._ext.advance_to(self._clock())
        fresh, self._fresh = self._fresh, []
        return fresh

    def finalize(self) -> CheckResult:
        """Force-finalize all pending EXT verdicts and return the result."""
        self._ext.flush()
        return self._result

    @property
    def result(self) -> CheckResult:
        return self._result

    @property
    def flipflop_stats(self) -> FlipFlopStats:
        return self._ext.stats

    @property
    def kernel_stats(self) -> KernelStats:
        """Per-stage operation counters of the staged batch kernel
        (coordinator-side: routing, probes dispatched, verdicts applied)."""
        return self._kernel_stats

    def _control(self, commands: List[Tuple]) -> List[Any]:
        """Run one control-plane command per shard (``commands[shard]``);
        returns the per-shard results.  Serial mode calls the cores
        in-process; process modes dispatch to every worker, then collect.
        Call under :attr:`ingest_lock` when ingestion runs concurrently."""
        if self._cores is not None:
            return [
                core.execute([command])[0]
                for core, command in zip(self._cores, commands)
            ]
        for conn, command in zip(self._conns, commands):
            conn.send(("cmds", [command]))
        return [conn.recv()[0] for conn in self._conns]

    def estimated_bytes(self) -> int:
        """Deep-size estimate across coordinator and all shards."""
        if self._cores is not None:
            return deep_sizeof((self._resident, self._ext, tuple(self._cores)))
        return deep_sizeof((self._resident, self._ext)) + sum(
            self._control([("sizeof",)] * self.n_shards)
        )

    def _shard_counts(self) -> List[Dict[str, int]]:
        """Per-shard structure/scan counters (observability path only)."""
        return self._control([("counts",)] * self.n_shards)

    def shard_stats(self) -> List[Dict[str, int]]:
        """One row per shard: structure sizes, scan counters, deferred
        read removals, and the latest batch's command count."""
        rows = self._shard_counts()
        for shard, row in enumerate(rows):
            row["shard"] = shard
            row["pending_removals"] = len(self._pending_removals[shard])
            row["last_batch_commands"] = self._last_batch_commands[shard]
        if self._lanes:
            for row, lane in zip(rows, self.lane_health()):
                row["lane_heartbeat"] = lane["heartbeat"]
                row["lane_stalled"] = int(lane["stalled"])
                row["lane_backlog_bytes"] = (
                    lane["request_backlog_bytes"] + lane["result_backlog_bytes"]
                )
                row["lane_bytes"] = lane["request_bytes"] + lane["result_bytes"]
        return rows

    def scan_step_totals(self) -> Tuple[int, int]:
        """Summed ``(scan_steps, gc_scan_steps)`` across all shards."""
        scan = 0
        gc_scan = 0
        for row in self._shard_counts():
            scan += row["scan_steps"]
            gc_scan += row["gc_scan_steps"]
        return scan, gc_scan

    def _lane_stalled(self, shard: int, now: float) -> bool:
        """Whether shard's lane consumer looks wedged: heartbeat frozen
        for longer than :attr:`lane_stall_timeout` (the worker beats
        every loop iteration, including idle ones, so a frozen counter
        is a stuck consumer, not an idle one)."""
        beat = self._lanes[shard][0].heartbeat()
        seen_beat, seen_at = self._hb_seen[shard]
        if beat != seen_beat:
            self._hb_seen[shard] = (beat, now)
            return False
        return (now - seen_at) > self.lane_stall_timeout

    def workers_alive(self) -> bool:
        """Whether every shard executor can still take a batch.

        Serial cores always can; process modes check the worker
        processes, and shm mode additionally watches each lane's
        heartbeat — a worker that is alive but no longer consuming
        (wedged in a syscall, stopped, livelocked) counts as down.
        """
        if self._cores is not None:
            return True
        if not self._workers:
            return False
        if not all(worker.is_alive() for worker in self._workers):
            return False
        if self._lanes:
            now = time.monotonic()
            return not any(
                self._lane_stalled(shard, now) for shard in range(self.n_shards)
            )
        return True

    def lane_health(self) -> List[Dict[str, Any]]:
        """One row per shared-memory lane pair: liveness, heartbeat,
        stall verdict, ring depths, and cumulative transferred bytes.
        Reads only shm counters and process liveness — safe to call
        from an observability thread without :attr:`ingest_lock`."""
        rows: List[Dict[str, Any]] = []
        now = time.monotonic()
        for shard, (req, res) in enumerate(self._lanes):
            rows.append(
                {
                    "shard": shard,
                    "alive": self._workers[shard].is_alive(),
                    "heartbeat": req.heartbeat(),
                    "stalled": self._lane_stalled(shard, now),
                    "request_backlog_bytes": req.lag(),
                    "result_backlog_bytes": res.lag(),
                    "request_bytes": req.bytes_pushed(),
                    "result_bytes": res.bytes_pushed(),
                    "frames": req.frames_pushed(),
                }
            )
        return rows

    # ------------------------------------------------------------------
    # Garbage collection hooks (the cycle itself is SpillingGc's)
    # ------------------------------------------------------------------

    def _evict_columns(self, ts: int) -> Tuple[VersionColumns, IntervalColumns]:
        """Evict on every shard; concatenate the shards' columns."""
        versions, intervals = empty_columns(), empty_columns()
        for shard_versions, shard_intervals in self._control(
            [("evict", ts)] * self.n_shards
        ):
            for merged, part in zip(versions, shard_versions):
                merged += part
            for merged, part in zip(intervals, shard_intervals):
                merged += part
        return versions, intervals

    def _merge_columns(self, versions: VersionColumns, intervals: IntervalColumns) -> None:
        """Hand each shard the reloaded rows of the keys it owns."""
        n_shards = self.n_shards
        split = [(empty_columns(), empty_columns()) for _ in range(n_shards)]
        for which, (keys, counts, *columns) in enumerate((versions, intervals)):
            lo = 0
            for key, count in zip(keys, counts):
                hi = lo + count
                part_keys, part_counts, *part_columns = split[shard_of(key, n_shards)][which]
                part_keys.append(key)
                part_counts.append(count)
                for part_column, column in zip(part_columns, columns):
                    part_column += column[lo:hi]
                lo = hi
        self._control([("merge", *part) for part in split])

    def close(self) -> None:
        """Stop worker processes and release the spill directory."""
        for conn in self._conns:
            try:
                conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for worker in self._workers:
            worker.join(timeout=5)
            if worker.is_alive():  # pragma: no cover - stuck worker
                worker.terminate()
        for conn in self._conns:
            conn.close()
        self._conns = []
        self._workers = []
        for req, res in self._lanes:
            req.close(unlink=True)
            res.close(unlink=True)
        self._lanes = []
        self._hb_seen = []
        super().close()

    def __enter__(self) -> "ShardedAion":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _report(self, violation: Violation) -> None:
        self._result.add(violation)
        self._fresh.append(violation)

    def _report_conflict(self, txn: Transaction, other_tid: int, other_cts: int, key: str) -> None:
        if txn.commit_ts < other_cts:
            earlier, later = txn.tid, other_tid
        else:
            earlier, later = other_tid, txn.tid
        self._report(
            ConflictViolation(
                axiom=Axiom.NOCONFLICT,
                tid=earlier,
                key=key,
                conflicting_tids=frozenset({later}),
            )
        )

    def _report_ext_violation(self, verdict: ExtVerdict) -> None:
        self._report(
            ExtViolation(
                axiom=Axiom.EXT,
                tid=verdict[EV_TID],
                key=verdict[EV_KEY],
                expected=verdict[EV_EXPECTED],
                actual=verdict[EV_ACTUAL],
            )
        )

    def _drop_finalized_reads(self, verdicts: List[ExtVerdict]) -> None:
        n_shards = self.n_shards
        pending = self._pending_removals
        for verdict in verdicts:
            key = verdict[EV_KEY]
            pending[shard_of(key, n_shards)].append(
                (key, verdict[EV_SNAPSHOT_TS], verdict[EV_TID])
            )
