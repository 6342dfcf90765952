"""ShardedAion — Aion's batch kernel over hash-partitioned structures.

Algorithm 3's per-arrival work decomposes cleanly by key: the versioned
frontier query of step ① , the interval-overlap query of step ② and the
EXT re-check sweep of step ③ each touch exactly the keys the arriving
transaction reads or writes.  :class:`ShardedAion` therefore *is*
:class:`~repro.core.aion.Aion` — it inherits ``receive_many`` whole:
validation, Eq. 1, hoisted reload-on-demand, SESSION, INT, the route
pass (object and columnar), EXT tracking, NOCONFLICT reports, timers
and the resident set — and differs in one thing only, where the three
per-key structures (:class:`~repro.core.versioned.VersionedFrontier`,
:class:`~repro.core.versioned.WriterIntervals`,
:class:`~repro.core.versioned.ExtReadIndex`) live: hash-partitioned
across N shard cores instead of in the checker.  It overrides the
kernel's two seams:

- **where streams are filed** — the route pass appends each key's
  arrival-ordered op stream to a dict whose ``__missing__`` files a new
  key's stream under ``shard_of(key)`` (one shard lookup per distinct
  key per batch, memoized in a bounded key → shard cache);
- **the probe step** — every shard first drops the reads whose verdicts
  were finalized since its last batch, then runs
  :func:`~repro.core.versioned.probe_columns` once over *its* keys'
  streams (:meth:`_ShardCore.probe`, the one shard entry point of both
  executors).

The equivalence argument is the kernel's own, restated per shard: a
key's stream holds that key's operations in arrival order whichever
shard owns it, so the owning shard's structures go through exactly the
states Aion's would; streams of different keys touch disjoint state and
commute, so running them grouped by shard — or concurrently in different
processes — changes nothing; and the inherited verdict pass applies all
global effects in arrival order.  Deferring a finalized read's removal
to the shard's next batch is safe because re-evaluating a finalized pair
is a tracker no-op — it only bounds index growth.  Hence verdicts, their
*report order* and the kernel counters all equal single-shard Aion's;
``tests/test_sharded.py`` and ``tests/test_batch_kernel.py`` pin it.

Executors differ only in where a shard's probe runs:

``"serial"`` shards read the coordinator's batch columns by reference
and write straight into its result arrays — no copy, no merge walk.

``"process"`` keeps each shard's state in a dedicated worker process.
The coordinator re-indexes a shard's streams onto shard-local columns
(only that shard's reads and writes cross the boundary), pickles the
probe request down the shard's pipe, and scatters the three result
columns that come back into the batch's arrays.  All shards are
dispatched before any reply is awaited, so they probe in parallel, free
of the GIL.

A worker is watched, not trusted.  A *dead* one surfaces as a
:class:`RuntimeError` from whichever call next talks to it, data or
control plane.  A *wedged* one — alive but frozen: stopped, swapped out,
deadlocked — passes ``is_alive()``, so each worker also runs a heartbeat
thread that advances a shared counter for as long as the process runs,
inside a long probe too.  :meth:`ShardedAion.workers_alive` reports a
worker whose counter has stood still for ``stall_timeout`` seconds, and
a call waiting on its reply raises instead of hanging.
"""

from __future__ import annotations

import multiprocessing
import signal
import threading
import time
import zlib
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.aion import Aion, AionConfig
from repro.core.common import BOTTOM
from repro.core.ext_status import REC_KEYS, REC_SNAPSHOT_TS, REC_TID, ExtRecord
from repro.core.versioned import (
    ExtReadIndex,
    IntervalColumns,
    VersionColumns,
    VersionedFrontier,
    WriterIntervals,
    empty_columns,
    probe_columns,
)
from repro.util.hostgc import paused
from repro.util.sizeof import deep_sizeof

__all__ = ["ShardedAion", "shard_of"]


def shard_of(key: str, n_shards: int) -> int:
    """Stable key → shard routing (crc32; Python's ``hash`` is salted)."""
    return zlib.crc32(key.encode("utf-8")) % n_shards


#: Entries the coordinator's key → shard cache holds before it is reset —
#: bounds coordinator memory against unbounded key spaces.
_KEY_CACHE_LIMIT = 1 << 18


class _ShardStreams(dict):
    """One batch's per-key op streams, filed under the owning shard as
    the route pass creates them: ``by_shard[s]`` maps exactly shard
    ``s``'s keys to the same list objects this dict holds."""

    __slots__ = ("by_shard", "_shard_for")

    def __init__(self, n_shards: int, shard_for: Callable[[str], int]) -> None:
        self.by_shard: List[Dict[str, List[int]]] = [{} for _ in range(n_shards)]
        self._shard_for = shard_for

    def __missing__(self, key: str) -> List[int]:
        stream = self[key] = self.by_shard[self._shard_for(key)][key] = []
        return stream


class _ShardCore:
    """One shard's versioned structures: the probe entry point every
    executor calls, plus the rare, payload-heavy control commands
    (evict, merge, sizeof, counts)."""

    __slots__ = ("frontier", "writers", "ext_reads")

    def __init__(self) -> None:
        self.frontier = VersionedFrontier()
        self.writers = WriterIntervals()
        self.ext_reads = ExtReadIndex()

    def probe(
        self,
        removals: List[Tuple[str, int, int]],
        key_streams: Dict[str, Any],
        r_ts: List[int],
        r_tids: List[int],
        w_vals: List[Any],
        w_starts: List[int],
        w_cts: List[int],
        w_tids: List[int],
        optimized: bool,
        results: Optional[Tuple[List[Any], List[Any], List[Any]]] = None,
    ) -> Tuple[List[Any], List[Any], List[Any]]:
        """Drop the finalized reads in ``removals``, then run this
        shard's ``key_streams`` over the given columns; see
        :func:`~repro.core.versioned.probe_columns` for ``results``.
        A worker process has a collector of its own, so the pause is
        taken here as well as in the coordinator's ``receive_many``."""
        with paused():
            if removals:
                self.ext_reads.remove_batch(removals)
            return probe_columns(
                self.frontier, self.writers, self.ext_reads, key_streams,
                r_ts, r_tids, w_vals, w_starts, w_cts, w_tids,
                optimized, BOTTOM, results,
            )

    def control(self, command: Tuple) -> Any:
        """Control plane: GC eviction and reload, dropping every indexed
        read, size estimation, counters."""
        op = command[0]
        if op == "evict":
            return self.frontier.evict_below(command[1]), self.writers.evict_below(command[1])
        if op == "merge":
            self.frontier.merge(command[1])
            self.writers.merge(command[2])
            return None
        if op == "clear_reads":
            self.ext_reads.clear()
            return None
        if op == "sizeof":
            return deep_sizeof((self.frontier, self.writers, self.ext_reads))
        if op == "counts":
            scan, gc_scan = self.writers.scan_step_totals()
            return {
                "versions": len(self.frontier),
                "intervals": len(self.writers),
                "ext_reads": len(self.ext_reads),
                "scan_steps": scan,
                "gc_scan_steps": gc_scan,
            }
        raise ValueError(f"unknown shard command {op!r}")  # pragma: no cover


#: Seconds between a worker's heartbeat ticks.  Bounds how soon a thawed
#: worker reads as alive again; a stall is declared only after
#: ``stall_timeout``, many ticks later.
_BEAT_SECONDS = 0.05


def _beat(heartbeat) -> None:
    """A worker's heartbeat thread: advance the shared counter for as
    long as the process runs.  The interpreter hands this thread the GIL
    during a long probe too, so only a frozen process stops the count."""
    while True:
        heartbeat.value += 1
        time.sleep(_BEAT_SECONDS)


def _shard_worker(conn, heartbeat) -> None:
    """Worker loop: own one shard core, serve probe and control requests.

    Pipe messages are ``("probe", request)``, ``("control", command)``
    and ``None`` to stop; a probe is answered with its three result
    columns.  ``heartbeat`` is the shared counter :func:`_beat` advances.
    """
    # A terminal Ctrl+C delivers SIGINT to the whole foreground process
    # group, workers included.  The parent handles it (e.g. `repro
    # serve` drains gracefully); a worker dying mid-drain would turn
    # that graceful stop into dropped batches and a partial verdict.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass
    threading.Thread(target=_beat, args=(heartbeat,), daemon=True).start()
    core = _ShardCore()
    try:
        while True:
            message = conn.recv()
            if message is None:
                break
            kind, payload = message
            if kind == "probe":
                conn.send(core.probe(*payload))
            elif kind == "control":
                conn.send(core.control(payload))
    except (EOFError, OSError, KeyboardInterrupt):  # pragma: no cover - teardown
        pass
    finally:
        conn.close()


class ShardedAion(Aion):
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
        ``"serial"`` probes the shards in-process; ``"process"`` pins
        each shard to a dedicated worker process and probes a batch's
        shards in parallel over pickle pipes.  Verdicts are identical.
    stall_timeout:
        Seconds a worker's heartbeat may stand still before the worker
        counts as frozen: :meth:`workers_alive` reports it, and a call
        waiting on its reply raises.  ``"process"`` only; the heartbeat
        ticks inside long probes too, so this need not cover a batch.
    """

    def __init__(
        self,
        config: Optional[AionConfig] = None,
        *,
        n_shards: int = 4,
        clock: Optional[Callable[[], float]] = None,
        executor: str = "serial",
        stall_timeout: float = 5.0,
    ) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if executor not in ("serial", "process"):
            raise ValueError(
                f"unknown executor {executor!r}: expected 'serial' or 'process'"
            )
        super().__init__(config, clock=clock)
        # The per-key structures live in the shards, not the coordinator.
        del self._frontier, self._writers, self._ext_reads
        self.n_shards = n_shards
        self.executor = executor
        #: Serializes checker access when ingestion happens off-thread
        #: (the service daemon drains batches on a worker thread while
        #: its event loop reads stats): hold it around any receive /
        #: poll / GC / finalize sequence that must not interleave.  The
        #: checker itself never blocks on it — single-threaded use pays
        #: nothing.
        self.ingest_lock = threading.Lock()
        #: Bounded key → shard memo shared by routing, read removal and
        #: spill reload.
        self._key_shards: Dict[str, int] = {}
        #: (key, snapshot_ts, tid) read removals owed to shards, applied
        #: at the head of the shard's next probe.
        self._pending_removals: List[List[Tuple[str, int, int]]] = [
            [] for _ in range(n_shards)
        ]
        #: Ops routed to each shard by the most recent batch — the cheap
        #: per-shard load-skew signal :meth:`shard_stats` and the
        #: slow-batch trace export.
        self._last_batch_commands: List[int] = [0] * n_shards
        self._cores: Optional[List[_ShardCore]] = None
        self._workers: List[multiprocessing.Process] = []
        self._conns: List[Any] = []
        #: Per shard, the worker's heartbeat counter in shared memory.
        self._heartbeats: List[Any] = []
        #: Per shard ``(heartbeat, monotonic observed-at)`` — the stall
        #: detector's memory of the last heartbeat movement.
        self._hb_seen: List[Tuple[int, float]] = []
        self.stall_timeout = stall_timeout
        #: Always 0: the shared-memory lane transport these counted is
        #: gone, and the ladder's sharded rung still reads them.
        self.lane_frames = 0
        self.lane_fallbacks = 0
        if executor == "serial":
            self._cores = [_ShardCore() for _ in range(n_shards)]
            return
        ctx = multiprocessing.get_context()
        for _ in range(n_shards):
            parent_conn, child_conn = ctx.Pipe()
            heartbeat = ctx.RawValue("Q", 0)
            worker = ctx.Process(
                target=_shard_worker, args=(child_conn, heartbeat), daemon=True
            )
            worker.start()
            child_conn.close()
            self._workers.append(worker)
            self._conns.append(parent_conn)
            self._heartbeats.append(heartbeat)
            self._hb_seen.append((0, time.monotonic()))

    # ------------------------------------------------------------------
    # Receiving transactions: Aion.receive_many, with two seams overridden
    # ------------------------------------------------------------------

    def _shard_for(self, key: str) -> int:
        cache = self._key_shards
        shard = cache.get(key)
        if shard is None:
            if len(cache) >= _KEY_CACHE_LIMIT:
                cache.clear()
            shard = cache[key] = shard_of(key, self.n_shards)
        return shard

    def _new_key_streams(self) -> _ShardStreams:
        return _ShardStreams(self.n_shards, self._shard_for)

    def _probe(
        self,
        key_streams: _ShardStreams,
        r_ts: List[int],
        r_tids: List[int],
        w_vals: List[Any],
        w_starts: List[int],
        w_cts: List[int],
        w_tids: List[int],
    ) -> Tuple[List[Any], List[Any], List[Any]]:
        """Probe step: hand every shard its deferred read removals and
        its keys' streams; collect the batch's three result columns."""
        by_shard = key_streams.by_shard
        n_shards = self.n_shards
        optimized = self.config.optimized_recheck
        removals = self._pending_removals
        self._pending_removals = [[] for _ in range(n_shards)]
        self._last_batch_commands = [
            sum(map(len, streams.values())) for streams in by_shard
        ]
        results = r_expected, w_conflicts, w_reevals = (
            [None] * len(r_ts), [None] * len(w_cts), [None] * len(w_cts)
        )
        if self._cores is not None:
            for core, removed, streams in zip(self._cores, removals, by_shard):
                if removed or streams:
                    core.probe(
                        removed, streams, r_ts, r_tids,
                        w_vals, w_starts, w_cts, w_tids, optimized, results,
                    )
            return results

        # Worker processes: dispatch every shard's request, then collect,
        # so the shards probe concurrently.  Each request carries only
        # the shard's own reads and writes, re-indexed onto shard-local
        # columns; the index maps scatter the answer back.
        dispatched: List[Tuple[int, List[int], List[int]]] = []
        for shard in range(n_shards):
            streams = by_shard[shard]
            if not (removals[shard] or streams):
                continue
            r_map: List[int] = []
            w_map: List[int] = []
            local: Dict[str, List[int]] = {}
            for key, stream in streams.items():
                codes = local[key] = []
                for code in stream:
                    if code & 1:
                        codes.append(len(w_map) << 1 | 1)
                        w_map.append(code >> 1)
                    else:
                        codes.append(len(r_map) << 1)
                        r_map.append(code >> 1)
            request = (
                removals[shard],
                local,
                *(list(map(column.__getitem__, r_map)) for column in (r_ts, r_tids)),
                *(
                    list(map(column.__getitem__, w_map))
                    for column in (w_vals, w_starts, w_cts, w_tids)
                ),
                optimized,
            )
            self._send(shard, ("probe", request))
            dispatched.append((shard, r_map, w_map))
        for shard, r_map, w_map in dispatched:
            shard_expected, shard_conflicts, shard_reevals = self._recv(shard)
            for index, expected in zip(r_map, shard_expected):
                r_expected[index] = expected
            for index, hits, affected in zip(w_map, shard_conflicts, shard_reevals):
                w_conflicts[index] = hits
                w_reevals[index] = affected
        return results

    def _slow_batch_tags(self) -> Dict[str, Any]:
        return {
            "checker": "sharded-aion",
            "shard_commands": list(self._last_batch_commands),
        }

    # ------------------------------------------------------------------
    # Talking to shard workers
    # ------------------------------------------------------------------

    def _send(self, shard: int, message: Any) -> None:
        try:
            self._conns[shard].send(message)
        except OSError:  # BrokenPipeError: the worker's end is gone
            raise RuntimeError(f"shard worker {shard} died (send failed)") from None

    def _recv(self, shard: int) -> Any:
        """Receive one reply from a shard worker.

        Blocks in bounded ``poll`` slices so a worker that died before
        answering surfaces as a :class:`RuntimeError` instead of a hang
        (a closed pipe raises ``EOFError`` inside ``recv`` as well), and
        so does one that stalled (:meth:`_stalled`).  A stalled worker is
        killed before the error is raised: its late reply would otherwise
        answer the next request, so every later call to it reads "died".
        """
        conn = self._conns[shard]
        worker = self._workers[shard]
        try:
            while not conn.poll(0.2):
                if not worker.is_alive():
                    raise EOFError
                if self._stalled(shard, time.monotonic()):
                    worker.kill()
                    worker.join(timeout=5)
                    raise RuntimeError(
                        f"shard worker {shard} stalled (no heartbeat for "
                        f"{self.stall_timeout:g} s); killed it"
                    )
            return conn.recv()
        except (EOFError, OSError):
            raise RuntimeError(f"shard worker {shard} died before answering") from None

    def _control(self, commands: List[Tuple]) -> List[Any]:
        """Run one control-plane command per shard (``commands[shard]``);
        returns the per-shard results.  Serial mode calls the cores
        in-process; process modes dispatch to every worker, then collect.
        Call under :attr:`ingest_lock` when ingestion runs concurrently."""
        if self._cores is not None:
            return [core.control(command) for core, command in zip(self._cores, commands)]
        for shard, command in enumerate(commands):
            self._send(shard, ("control", command))
        return [self._recv(shard) for shard in range(self.n_shards)]

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def estimated_bytes(self) -> int:
        """Deep-size estimate across coordinator and all shards."""
        if self._cores is not None:
            return deep_sizeof((self._resident, self._ext, tuple(self._cores)))
        return deep_sizeof((self._resident, self._ext)) + sum(
            self._control([("sizeof",)] * self.n_shards)
        )

    @property
    def pending_ext_reads(self) -> int:
        """Reads the shards index (a finalized read leaves its shard's
        index at the head of that shard's next batch)."""
        return sum(row["ext_reads"] for row in self._shard_counts())

    def _shard_counts(self) -> List[Dict[str, int]]:
        """Per-shard structure/scan counters (observability path only)."""
        return self._control([("counts",)] * self.n_shards)

    def shard_stats(self) -> List[Dict[str, int]]:
        """One row per shard: structure sizes, scan counters, deferred
        read removals, and the ops the latest batch routed to it."""
        rows = self._shard_counts()
        for shard, row in enumerate(rows):
            row["shard"] = shard
            row["pending_removals"] = len(self._pending_removals[shard])
            row["last_batch_commands"] = self._last_batch_commands[shard]
        return rows

    def scan_step_totals(self) -> Tuple[int, int]:
        """Summed ``(scan_steps, gc_scan_steps)`` across all shards."""
        scan = 0
        gc_scan = 0
        for row in self._shard_counts():
            scan += row["scan_steps"]
            gc_scan += row["gc_scan_steps"]
        return scan, gc_scan

    def _stalled(self, shard: int, now: float) -> bool:
        """Whether shard's worker looks frozen: its heartbeat has stood
        still for longer than :attr:`stall_timeout` (the heartbeat thread
        ticks whether the worker idles or probes, so a frozen counter is
        a frozen process, not a busy one)."""
        beat = self._heartbeats[shard].value
        seen_beat, seen_at = self._hb_seen[shard]
        if beat != seen_beat:
            self._hb_seen[shard] = (beat, now)
            return False
        return now - seen_at > self.stall_timeout

    def worker_faults(self) -> Tuple[List[int], List[int]]:
        """``(died, stalled)``: the shards whose worker process has
        exited, and those whose worker is alive but frozen.  Reads only
        process liveness and the shared heartbeat counters — safe to
        call from an observability thread without :attr:`ingest_lock`.
        Serial shards never fault."""
        now = time.monotonic()
        died: List[int] = []
        stalled: List[int] = []
        for shard, worker in enumerate(self._workers):
            if not worker.is_alive():
                died.append(shard)
            elif self._stalled(shard, now):
                stalled.append(shard)
        return died, stalled

    def workers_alive(self) -> bool:
        """Whether every shard executor can still take a batch.

        Serial cores always can; worker processes must be running and
        their heartbeats moving — a worker that is alive but frozen
        (stopped, swapped out, deadlocked) counts as down.
        """
        if self._cores is not None:
            return True
        return bool(self._workers) and self.worker_faults() == ([], [])

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
        shard_for = self._shard_for
        split = [(empty_columns(), empty_columns()) for _ in range(self.n_shards)]
        for which, (keys, counts, *columns) in enumerate((versions, intervals)):
            lo = 0
            for key, count in zip(keys, counts):
                hi = lo + count
                part_keys, part_counts, *part_columns = split[shard_for(key)][which]
                part_keys.append(key)
                part_counts.append(count)
                for part_column, column in zip(part_columns, columns):
                    part_column += column[lo:hi]
                lo = hi
        self._control([("merge", *part) for part in split])

    def _drop_finalized_reads(self, records: List[ExtRecord], drained: bool) -> None:
        if drained:
            # Nothing is pending any more (the end-of-stream flush): every
            # read a shard still indexes is finalized, so one command per
            # shard replaces a removal tuple per read, queued for a probe
            # that may never come.
            self._pending_removals = [[] for _ in range(self.n_shards)]
            self._control([("clear_reads",)] * self.n_shards)
            return
        pending = self._pending_removals
        shard_for = self._shard_for
        for record in records:
            sts = record[REC_SNAPSHOT_TS]
            tid = record[REC_TID]
            for key in record[REC_KEYS]:
                pending[shard_for(key)].append((key, sts, tid))

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
        self._heartbeats = []
        self._hb_seen = []
        super().close()

    def __enter__(self) -> "ShardedAion":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
