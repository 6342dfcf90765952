"""Aion — the online timestamp-based SI checker (Algorithm 3).

Aion receives committed transactions one at a time, in an order that
respects each session but is otherwise arbitrary (asynchrony may deliver
transactions far from timestamp order), and maintains the same verdicts
Chronos would produce on the full history.  Per arrival it performs the
three steps of Algorithm 3:

① check SESSION / INT / EXT for the new transaction ``T``, evaluating
  external reads against the *versioned* frontier at ``T.start_ts``
  (:class:`~repro.core.versioned.VersionedFrontier`);

② re-check NOCONFLICT for transactions overlapping ``T``: an interval
  overlap query on the per-key writer index
  (:class:`~repro.core.versioned.WriterIntervals`), reporting each
  conflicting pair once, attributed to the transaction with the smaller
  commit timestamp;

③ re-check EXT for transactions whose snapshot now sees ``T``'s writes:
  exactly the external reads of keys in ``T.wkey`` with snapshot points in
  ``[T.commit_ts, next-overwrite)`` — the paper's three optimizations
  (only keys written by ``T``, not yet overwritten, stop at overwrite)
  fall out of the per-key read index
  (:class:`~repro.core.versioned.ExtReadIndex`).

EXT verdicts are tentative (they can flip as delayed transactions arrive)
and are only *reported* when the transaction's timer expires
(:class:`~repro.core.ext_status.ExtStatusTracker`); INT, SESSION and
NOCONFLICT verdicts are stable and reported immediately.

Garbage collection (:meth:`Aion.collect_below`, implemented once for all
online checkers by :class:`~repro.core.spill.SpillingGc`) transfers
frontier versions, writer intervals, and resident transactions below a
GC-safe timestamp to a disk :class:`~repro.core.spill.SpillStore`; the
checker transparently reloads overlapping segments when a severely
delayed transaction forces a query below the in-memory boundary.

Per-arrival complexity is ``O(log N + M)`` plus the size of the affected
re-check sets (§III-C4).

Scope note: list (append) operations are supported offline by Chronos;
online re-resolution of appends under asynchrony cascades and is left as
the paper leaves it (the online evaluation, §VI, uses key-value
histories).  Aion raises :class:`ValueError` when handed an append.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.common import BOTTOM, SessionTracker, simulate_transaction_ops, values_match
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
from repro.core.kernel import KernelStats, resolve_columns, resolve_writes
from repro.core.spill import GcReport, SpillingGc
from repro.core.versioned import (
    ExtReadIndex,
    IntervalColumns,
    VersionColumns,
    VersionedFrontier,
    WriterIntervals,
    probe_columns,
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

__all__ = ["Aion", "AionConfig", "GcReport"]


@dataclass
class AionConfig:
    """Tunables of the online checker.

    ``timeout`` is the EXT re-checking deadline per transaction (the paper
    conservatively uses 5 seconds, §IV-A).  ``spill_dir`` fixes where GC
    segments are written; None uses a temporary directory.

    ``optimized_recheck`` enables the paper's three step-③ optimizations
    (re-check only keys written by the arrival, only reads whose visible
    version actually changed, stop at the next overwrite).  Disabling it
    re-evaluates *every* pending external read of each written key
    against a fresh frontier query — still correct, but the ablation the
    throughput benchmarks quantify.
    """

    timeout: float = 5.0
    spill_dir: Optional[Path] = None
    optimized_recheck: bool = True


class Aion(SpillingGc):
    """Online SI checker over key-value histories.

    Parameters
    ----------
    config:
        See :class:`AionConfig`.
    clock:
        A zero-argument callable returning the current time in seconds.
        Defaults to :func:`time.monotonic`; the online experiment runner
        injects a virtual clock so timeout behaviour is deterministic.
    """

    def __init__(
        self,
        config: Optional[AionConfig] = None,
        *,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.config = config or AionConfig()
        self._clock = clock if clock is not None else time.monotonic
        self._frontier = VersionedFrontier()
        self._writers = WriterIntervals()
        self._ext_reads = ExtReadIndex()
        self._sessions = SessionTracker(mode="si")
        self._ext = ExtStatusTracker(
            timeout=self.config.timeout,
            on_violation=self._report_ext_violation,
            on_finalized_batch=self._drop_finalized_reads,
        )
        self._result = CheckResult()
        self._fresh: List[Violation] = []
        self._init_gc()
        self._kernel_stats = KernelStats()
        self.processed = 0

    # ------------------------------------------------------------------
    # Receiving transactions
    # ------------------------------------------------------------------

    def receive(self, txn: Transaction) -> None:
        """Process one incoming transaction (ONLINE_CHECK_SI, Algorithm 3).

        The single-arrival twin of :meth:`receive_many`: identical
        semantics (the differential suite asserts it), but paying the
        clock read, timer-queue advancement, deadline arming, and
        structure lookups per call — a batch can amortize those, one
        arrival cannot.
        """
        now = self._clock()
        self._ext.advance_to(now)

        if txn.start_ts > txn.commit_ts:  # Eq. 1 (lines 3:4–3:5)
            self._report(
                TimestampOrderViolation(
                    axiom=Axiom.TS_ORDER,
                    tid=txn.tid,
                    start_ts=txn.start_ts,
                    commit_ts=txn.commit_ts,
                )
            )
            return

        for op in txn.ops:
            if op.kind is OpKind.APPEND:
                raise ValueError(
                    "Aion checks key-value histories online; list (append) "
                    "histories are checked offline by Chronos"
                )

        # Severely delayed transaction below the GC boundary: restore ALL
        # spilled state (reload-on-demand, ▧); see receive_many.
        if self._collected_upto is not None and txn.start_ts <= self._collected_upto:
            self._reload_below(None)

        violation = self._sessions.observe(txn)  # lines 3:7–3:10
        if violation is not None:
            self._report(violation)

        tid = txn.tid

        # ---- step ①: INT immediately, EXT tentatively (lines 3:11–3:25).
        writes = simulate_transaction_ops(
            txn,
            lambda key: self._visible_value(key, txn.start_ts),
            lambda key, exp, act: None,  # EXT handled below with tracking
            lambda key, exp, act: self._report(
                IntViolation(axiom=Axiom.INT, tid=tid, key=key, expected=exp, actual=act)
            ),
        )
        for key, op in txn.external_reads.items():
            expected = self._visible_value(key, txn.start_ts)
            self._ext.track(
                tid, key, txn.start_ts, op.value, ok=values_match(expected, op.value),
                expected=expected, now=now,
            )
            self._ext_reads.add(key, txn.start_ts, tid, op.value)

        # ---- step ②: NOCONFLICT re-check via interval overlap.
        for key in writes:
            for hit in self._writers.overlapping(
                key, txn.start_ts, txn.commit_ts, exclude_tid=tid
            ):
                self._report_conflict(txn, hit.owner, hit.end, key)
            self._writers.add(key, txn.start_ts, txn.commit_ts, tid)

        # ---- step ③: EXT re-check for snapshots that now see T's writes.
        for key, value in writes.items():
            nxt = self._frontier.insert_and_next(key, txn.commit_ts, value, tid)
            next_ts = nxt[0] if nxt is not None else None
            if self.config.optimized_recheck:
                for _, reader_tid, actual in self._ext_reads.affected_by(
                    key, txn.commit_ts, next_ts
                ):
                    if reader_tid == tid:
                        continue
                    self._ext.reevaluate(reader_tid, key, actual == value, value, now)
            else:
                for snapshot_ts, reader_tid, actual in self._ext_reads.affected_by(
                    key, 0, None
                ):
                    if reader_tid == tid:
                        continue
                    expected = self._visible_value(key, snapshot_ts)
                    self._ext.reevaluate(
                        reader_tid, key, values_match(expected, actual), expected, now
                    )

        self._resident[tid] = txn
        self._resident_cts_pending.append((txn.commit_ts, tid))
        self.processed += 1
        self._ext.arm_timer(tid, now)  # line 3:3

    def receive_many(self, txns) -> None:
        """Process a batch of arrivals through the staged batch kernel.

        Semantically identical to calling :meth:`receive` per transaction
        with a clock frozen for the duration of the batch (the
        differential suite asserts the equivalence), but structured as
        three flat passes over parallel op arrays instead of a per-
        transaction walk of Algorithm 3:

        **route** — decode the batch into columnar arrays (read keys /
        snapshot points / readers / observed values; write keys / values /
        intervals) plus one op stream per key, running the order-stable
        per-transaction work (Eq. 1, session tracking, the transaction-
        local INT simulation) as it goes;

        **frontier probe** — walk each key's op stream in arrival order
        against the versioned structures: visibility floors for external
        reads, fused overlap-query-plus-insert on the writer intervals,
        fused insert-plus-successor on the frontier, and the affected-
        reader sweep — per-key grouping amortizes the index descents a
        per-op walk pays per operation;

        **verdict** — track all EXT verdicts in one bulk call, then walk
        the batch in arrival order emitting violations and applying
        re-evaluations, so reported order matches the per-op path.

        Correctness: per-key operations preserve arrival order within
        each stream (a transaction's reads precede its writes, matching
        steps ① and ③), operations on distinct keys touch disjoint state
        and commute, and global effects are applied in arrival order by
        the verdict pass.  Tracking a batch's reads before applying its
        re-evaluations is safe because a pair's re-evaluations only ever
        originate from writes later in its key's stream than the pair's
        own read.

        This is the only SI batch kernel: :class:`~repro.core.sharded.
        ShardedAion` inherits it whole and overrides two seams —
        :meth:`_new_key_streams` (where the route pass files each key's
        stream) and :meth:`_probe` (which structures the streams run
        against).
        """
        # Validate the whole batch before mutating any state: a rejected
        # append mid-loop would otherwise leave earlier batch members
        # tracked but timer-less.
        batch = txns if isinstance(txns, ColumnarBatch) else None
        if batch is not None:
            if batch.has_appends:
                raise ValueError(
                    "Aion checks key-value histories online; list (append) "
                    "histories are checked offline by Chronos"
                )
        else:
            if not isinstance(txns, (list, tuple)):
                txns = list(txns)
            for txn in txns:
                for op in txn.ops:
                    if op.kind is OpKind.APPEND:
                        raise ValueError(
                            "Aion checks key-value histories online; list (append) "
                            "histories are checked offline by Chronos"
                        )
        now = self._clock()
        ext = self._ext
        ext.advance_to(now)
        if not txns:
            return
        optimized = self.config.optimized_recheck
        collected = self._collected_upto
        stats = self._kernel_stats
        perf_counter = time.perf_counter
        timing = stats.timing_enabled()
        track_total = timing or stats.slow_threshold > 0.0
        t_batch0 = perf_counter() if track_total else 0.0
        stats.batches += 1
        n = len(txns)
        stats.txns += n
        if n > stats.max_batch:
            stats.max_batch = n

        # Reload-on-demand (▧), hoisted to the batch boundary: a severely
        # delayed transaction below the GC boundary forces ALL spilled
        # state back (the step-③ re-check range is bounded by *next*
        # versions, which may sit in higher segments), and the ablation
        # re-checks arbitrarily old snapshot points on every write.
        # Reloading before the batch instead of at the transaction's
        # sequence point is verdict-equivalent: reloaded data is strictly
        # older than each key's retained newest-evictable version, so no
        # floor/successor query issued by the preceding above-boundary
        # transactions can observe it.
        if self._spill is not None and len(self._spill) > 0:
            need_reload = False
            if batch is not None:
                starts = batch.starts
                commits = batch.commits
                offsets = batch.op_offsets
                kinds = batch.op_kinds
                if collected is not None:
                    for position in range(n):
                        start_ts = starts[position]
                        if start_ts <= collected and start_ts <= commits[position]:
                            need_reload = True
                            break
                if not need_reload and not optimized:
                    for position in range(n):
                        if starts[position] > commits[position]:
                            continue
                        if 1 in kinds[offsets[position] : offsets[position + 1]]:
                            need_reload = True
                            break
            else:
                if collected is not None:
                    for txn in txns:
                        if txn.start_ts <= collected and txn.start_ts <= txn.commit_ts:
                            need_reload = True
                            break
                if not need_reload and not optimized:
                    for txn in txns:
                        if txn.start_ts > txn.commit_ts:
                            continue
                        for op in txn.ops:
                            if op.kind is OpKind.WRITE:
                                need_reload = True
                                break
                        if need_reload:
                            break
            if need_reload:
                self._reload_below(None)

        # ---- route: decode into flat parallel arrays + per-key streams.
        t_route0 = perf_counter() if timing else 0.0
        sessions = self._sessions
        r_keys: List[str] = []
        r_ts: List[int] = []
        r_tids: List[int] = []
        r_vals: List[Any] = []
        w_keys: List[str] = []
        w_vals: List[Any] = []
        w_starts: List[int] = []
        w_cts: List[int] = []
        w_tids: List[int] = []
        #: Per key, arrival-ordered op stream: ``index << 1`` encodes the
        #: read at ``index``; ``index << 1 | 1`` the write at ``index``.
        key_streams = self._new_key_streams()
        r_keys_append = r_keys.append
        r_ts_append = r_ts.append
        r_tids_append = r_tids.append
        r_vals_append = r_vals.append
        w_keys_append = w_keys.append
        w_vals_append = w_vals.append
        w_starts_append = w_starts.append
        w_cts_append = w_cts.append
        w_tids_append = w_tids.append
        # Per txn: (txn, pre-violations, w_lo, w_hi) — or None for Eq. 1
        # rejects, which own no probe work (their pre-violation is kept in
        # batch position so report order matches the per-op path).
        entries: List[Tuple[Transaction, Optional[List[Violation]], int, int]] = []
        rejected: Dict[int, Violation] = {}
        if batch is not None:
            # Columnar arrivals (wire frames, packed WALs): route straight
            # off the batch's flat arrays — no Operation objects, no
            # per-transaction derived views.  ``resolve_columns`` fuses the
            # external-read detection into the INT/write simulation walk,
            # and the Transaction objects entering the verdict pass are
            # lazy (``from_parts``): their op tuples materialize only if
            # something off the hot path (GC spill, repr) asks.
            tids_col = batch.tids
            starts_col = batch.starts
            commits_col = batch.commits
            offsets_col = batch.op_offsets
            kinds_col = batch.op_kinds
            keys_col = batch.op_keys
            vals_col = batch.op_values
            transaction_at = batch.transaction_at
            for position in range(n):
                tid = tids_col[position]
                start_ts = starts_col[position]
                commit_ts = commits_col[position]
                lo = offsets_col[position]
                hi = offsets_col[position + 1]
                stats.route_ops += hi - lo
                if start_ts > commit_ts:  # Eq. 1 (lines 3:4–3:5)
                    rejected[position] = TimestampOrderViolation(
                        axiom=Axiom.TS_ORDER,
                        tid=tid,
                        start_ts=start_ts,
                        commit_ts=commit_ts,
                    )
                    continue
                txn = transaction_at(position)
                violation = sessions.observe(txn)  # lines 3:7–3:10
                external, writes, int_mismatches = resolve_columns(
                    kinds_col, keys_col, vals_col, lo, hi
                )
                pre: Optional[List[Violation]] = None
                if violation is not None or int_mismatches is not None:
                    pre = []
                    if violation is not None:
                        pre.append(violation)
                    if int_mismatches is not None:
                        for key, exp, act in int_mismatches:
                            pre.append(
                                IntViolation(
                                    axiom=Axiom.INT, tid=tid, key=key, expected=exp, actual=act
                                )
                            )
                for key, value in external:
                    key_streams[key].append(len(r_keys) << 1)
                    r_keys_append(key)
                    r_ts_append(start_ts)
                    r_tids_append(tid)
                    r_vals_append(value)
                w_lo = len(w_keys)
                for key, value in writes.items():
                    key_streams[key].append((len(w_keys) << 1) | 1)
                    w_keys_append(key)
                    w_vals_append(value)
                    w_starts_append(start_ts)
                    w_cts_append(commit_ts)
                    w_tids_append(tid)
                entries.append((txn, pre, w_lo, len(w_keys)))
        else:
            for position, txn in enumerate(txns):
                tid = txn.tid
                start_ts = txn.start_ts
                commit_ts = txn.commit_ts
                stats.route_ops += len(txn.ops)
                if start_ts > commit_ts:  # Eq. 1 (lines 3:4–3:5)
                    rejected[position] = TimestampOrderViolation(
                        axiom=Axiom.TS_ORDER,
                        tid=tid,
                        start_ts=start_ts,
                        commit_ts=commit_ts,
                    )
                    continue
                violation = sessions.observe(txn)  # lines 3:7–3:10
                writes, int_mismatches = resolve_writes(txn.ops)
                pre = None
                if violation is not None or int_mismatches is not None:
                    pre = []
                    if violation is not None:
                        pre.append(violation)
                    if int_mismatches is not None:
                        for key, exp, act in int_mismatches:
                            pre.append(
                                IntViolation(
                                    axiom=Axiom.INT, tid=tid, key=key, expected=exp, actual=act
                                )
                            )
                for key, op in txn.external_reads.items():
                    key_streams[key].append(len(r_keys) << 1)
                    r_keys_append(key)
                    r_ts_append(start_ts)
                    r_tids_append(tid)
                    r_vals_append(op.value)
                w_lo = len(w_keys)
                for key, value in writes.items():
                    key_streams[key].append((len(w_keys) << 1) | 1)
                    w_keys_append(key)
                    w_vals_append(value)
                    w_starts_append(start_ts)
                    w_cts_append(commit_ts)
                    w_tids_append(tid)
                entries.append((txn, pre, w_lo, len(w_keys)))

        n_reads = len(r_keys)
        n_writes = len(w_keys)
        stats.probe_reads += n_reads
        stats.probe_writes += n_writes
        if timing:
            t_probe0 = perf_counter()
            stats.route_seconds += t_probe0 - t_route0
        else:
            t_probe0 = 0.0

        # ---- frontier probe: per-key streams in arrival order.
        r_expected, w_conflicts, w_reevals = self._probe(
            key_streams, r_ts, r_tids, r_vals, w_vals, w_starts, w_cts, w_tids
        )
        if timing:
            t_verdict0 = perf_counter()
            stats.probe_seconds += t_verdict0 - t_probe0
        else:
            t_verdict0 = 0.0

        # ---- verdict: bulk-track, then walk the batch in arrival order.
        if n_reads:
            ext.track_columns(r_tids, r_keys, r_ts, r_vals, r_expected, now, BOTTOM)
            stats.verdict_tracks += n_reads

        report = self._report
        reevaluate = ext.reevaluate
        resident = self._resident
        pending_cts = self._resident_cts_pending.append
        armed: List[int] = []
        armed_append = armed.append
        rejected_get = rejected.get
        cursor = 0
        n_reevals = 0
        n_conflicts = 0
        for position in range(n):
            reject = rejected_get(position)
            if reject is not None:
                report(reject)
                continue
            txn, pre, w_lo, w_hi = entries[cursor]
            cursor += 1
            if pre is not None:
                for violation in pre:
                    report(violation)
            tid = txn.tid
            for index in range(w_lo, w_hi):
                hits = w_conflicts[index]
                if hits is not None:
                    key = w_keys[index]
                    n_conflicts += len(hits)
                    for owner, end in hits:
                        self._report_conflict(txn, owner, end, key)
                affected = w_reevals[index]
                if affected is not None:
                    key = w_keys[index]
                    n_reevals += len(affected)
                    if optimized:
                        value = w_vals[index]
                        for _sts, reader_tid, actual in affected:
                            reevaluate(reader_tid, key, actual == value, value, now)
                    else:
                        for expected, reader_tid, actual in affected:
                            ok = (actual is None) if expected is BOTTOM else (expected == actual)
                            reevaluate(reader_tid, key, ok, expected, now)
            resident[tid] = txn
            pending_cts((txn.commit_ts, tid))
            armed_append(tid)
        self.processed += len(armed)
        stats.verdict_reevals += n_reevals
        stats.verdict_conflicts += n_conflicts
        ext.arm_timers(armed, now)  # line 3:3
        if track_total:
            t_end = perf_counter()
            total = t_end - t_batch0
            if timing:
                stats.timed_batches += 1
                stats.verdict_seconds += t_end - t_verdict0
                stats.batch_seconds += total
            if stats.slow_threshold > 0.0 and total >= stats.slow_threshold:
                top = sorted(
                    key_streams.items(), key=lambda item: len(item[1]), reverse=True
                )[:5]
                stats.record_slow(
                    {
                        **self._slow_batch_tags(),
                        "seconds": round(total, 6),
                        "batch_txns": n,
                        "reads": n_reads,
                        "writes": n_writes,
                        "distinct_keys": len(key_streams),
                        "route_s": round(t_probe0 - t_route0, 6) if timing else None,
                        "probe_s": round(t_verdict0 - t_probe0, 6) if timing else None,
                        "verdict_s": round(t_end - t_verdict0, 6) if timing else None,
                        "top_keys": [[key, len(ops)] for key, ops in top],
                    }
                )

    # ------------------------------------------------------------------
    # Kernel seams (overridden by ShardedAion)
    # ------------------------------------------------------------------

    def _new_key_streams(self) -> Dict[str, List[int]]:
        """The container the route pass appends per-key op streams to:
        ``streams[key]`` must create the key's stream on first use."""
        return defaultdict(list)

    def _probe(
        self,
        key_streams: Dict[str, List[int]],
        r_ts: List[int],
        r_tids: List[int],
        r_vals: List[Any],
        w_vals: List[Any],
        w_starts: List[int],
        w_cts: List[int],
        w_tids: List[int],
    ) -> Tuple[List[Any], List[Any], List[Any]]:
        """Run one batch's per-key streams against the versioned
        structures (one representation fetch per key instead of one per
        op — see :func:`~repro.core.versioned.probe_columns`)."""
        return probe_columns(
            self._frontier,
            self._writers,
            self._ext_reads,
            key_streams,
            r_ts,
            r_tids,
            r_vals,
            w_vals,
            w_starts,
            w_cts,
            w_tids,
            self.config.optimized_recheck,
            BOTTOM,
        )

    def _slow_batch_tags(self) -> Dict[str, Any]:
        """Checker-specific head of a slow-batch trace record."""
        return {"checker": "aion"}

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def poll(self) -> List[Violation]:
        """Drain violations reported since the previous poll.

        Also fires any EXT timeouts that are due at the current clock.
        """
        self._ext.advance_to(self._clock())
        fresh, self._fresh = self._fresh, []
        return fresh

    def finalize(self) -> CheckResult:
        """Force-finalize all pending EXT verdicts and return the result.

        Used at end of stream; equivalent to waiting out every timer.
        """
        self._ext.flush()
        return self._result

    @property
    def result(self) -> CheckResult:
        """Violations reported so far (EXT only after finalization)."""
        return self._result

    @property
    def flipflop_stats(self) -> FlipFlopStats:
        return self._ext.stats

    @property
    def kernel_stats(self) -> KernelStats:
        """Per-stage operation counters of the staged batch kernel."""
        return self._kernel_stats

    def estimated_bytes(self) -> int:
        """Deep-size estimate of the checker's live structures."""
        return deep_sizeof(
            (
                self._frontier,
                self._writers,
                self._ext_reads,
                self._resident,
                self._ext,
            )
        )

    def scan_step_totals(self) -> Tuple[int, int]:
        """Summed ``(scan_steps, gc_scan_steps)`` over live promoted
        writer-interval keys (see ``WriterIntervals.scan_step_totals``)."""
        return self._writers.scan_step_totals()

    # ------------------------------------------------------------------
    # Garbage collection hooks (the cycle itself is SpillingGc's)
    # ------------------------------------------------------------------

    def _evict_columns(self, ts: int) -> Tuple[VersionColumns, IntervalColumns]:
        return self._frontier.evict_below(ts), self._writers.evict_below(ts)

    def _merge_columns(self, versions: VersionColumns, intervals: IntervalColumns) -> None:
        self._frontier.merge(versions)
        self._writers.merge(intervals)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _visible_value(self, key: str, ts: int) -> Any:
        version = self._frontier.latest_at(key, ts)
        # A floor below the collected boundary may be stale (or absent):
        # newer versions still <= ts can live in spilled segments.
        if (
            self._spill is not None
            and self._collected_upto is not None
            and ts <= self._collected_upto
        ):
            spilled_min = self._spill.min_spilled_ts()
            if spilled_min is not None and spilled_min <= ts:
                self._reload_below(ts)
                version = self._frontier.latest_at(key, ts)
        return BOTTOM if version is None else version[1]

    def _report(self, violation: Violation) -> None:
        self._result.add(violation)
        self._fresh.append(violation)

    def _report_conflict(self, txn: Transaction, other_tid: int, other_cts: int, key: str) -> None:
        # One report per pair, attributed to the smaller commit timestamp
        # (matches Chronos's commit-event reporting convention).
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
        # Live index entries correspond 1:1 to live unfinalized verdicts
        # (every add is paired with a track, removal only happens here,
        # and pending reads are never GC-evicted), so a finalized batch
        # as large as the index covers it entirely — the shape of the
        # end-of-stream flush.
        ext_reads = self._ext_reads
        if len(verdicts) == len(ext_reads):
            ext_reads.clear()
            return
        ext_reads.remove_batch(
            [(v[EV_KEY], v[EV_SNAPSHOT_TS], v[EV_TID]) for v in verdicts]
        )

