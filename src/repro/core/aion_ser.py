"""Aion-SER — the online timestamp-based serializability checker (§VI).

Serializability in commit-timestamp order simplifies the online problem:
start timestamps are ignored and NOCONFLICT is not needed, so the checker
keeps only the versioned frontier and the external-read index.  A
transaction's snapshot point is its *commit* timestamp, and an external
read must return the value of the greatest version *strictly below* that
point (the serial predecessor).

Out-of-order arrival still destabilizes EXT: a transaction slotting into
the middle of the serial order changes the predecessor of later readers.
Re-checking mirrors Aion's step ③ with the boundary adjusted: a version
inserted at ``cts`` affects readers with snapshot points in
``(cts, next-version]`` — the upper bound is inclusive because the reader
committing exactly at the next version is that version's own writer and
reads strictly below itself.

Like Cobra, Aion-SER is an online SER checker, but it needs no fence
transactions and keeps checking past violations (Fig 12a/25).
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Callable, DefaultDict, Dict, List, Optional, Tuple

from repro.core.aion import AionConfig
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
from repro.core.spill import SpillingGc
from repro.core.versioned import (
    ExtReadIndex,
    IntervalColumns,
    VersionColumns,
    VersionedFrontier,
    empty_columns,
)
from repro.core.violations import (
    Axiom,
    CheckResult,
    ExtViolation,
    IntViolation,
    TimestampOrderViolation,
    Violation,
)
from repro.histories.model import OpKind, Transaction
from repro.core.colpack import ColumnarBatch
from repro.util.sizeof import deep_sizeof

__all__ = ["AionSer"]


class AionSer(SpillingGc):
    """Online SER checker over key-value histories."""

    def __init__(
        self,
        config: Optional[AionConfig] = None,
        *,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.config = config or AionConfig()
        self._clock = clock if clock is not None else time.monotonic
        self._frontier = VersionedFrontier()
        self._ext_reads = ExtReadIndex()
        self._sessions = SessionTracker(mode="ser")
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

    def receive(self, txn: Transaction) -> None:
        """Process one incoming transaction for online SER checking."""
        now = self._clock()
        self._ext.advance_to(now)
        self._receive_one(txn, now)
        self._ext.arm_timer(txn.tid, now)

    def receive_many(self, txns: List[Transaction]) -> None:
        """Batched ingestion through the staged batch kernel.

        The SER shape of :meth:`repro.core.aion.Aion.receive_many` —
        route, frontier probe, verdict — with the serial-order
        adjustments: the snapshot point is the commit timestamp, the
        visibility floor is the *strict* predecessor, step ③'s re-check
        range is upper-inclusive, there is no writer-interval step, and
        Eq. 1 violations do not reject the transaction.
        """
        # Whole-batch validation up front, as in Aion.receive_many.
        batch = txns if isinstance(txns, ColumnarBatch) else None
        if batch is not None:
            if batch.has_appends:
                raise ValueError(
                    "Aion-SER checks key-value histories online; list "
                    "(append) histories are checked offline by Chronos-SER"
                )
        else:
            if not isinstance(txns, (list, tuple)):
                txns = list(txns)
            for txn in txns:
                for op in txn.ops:
                    if op.kind is OpKind.APPEND:
                        raise ValueError(
                            "Aion-SER checks key-value histories online; list "
                            "(append) histories are checked offline by Chronos-SER"
                        )
        now = self._clock()
        ext = self._ext
        ext.advance_to(now)
        if not txns:
            return
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

        # Reload-on-demand hoisted to the batch boundary (see Aion's
        # kernel for the equivalence argument; here the snapshot point —
        # and hence the boundary test — is the commit timestamp).
        if self._spill is not None and len(self._spill) > 0 and collected is not None:
            if batch is not None:
                need_reload = any(cts <= collected for cts in batch.commits)
            else:
                need_reload = any(txn.commit_ts <= collected for txn in txns)
            if need_reload:
                self._reload_below(None)

        # ---- route ----
        t_route0 = perf_counter() if timing else 0.0
        sessions = self._sessions
        r_keys: List[str] = []
        r_ts: List[int] = []
        r_tids: List[int] = []
        r_vals: List[Any] = []
        w_keys: List[str] = []
        w_vals: List[Any] = []
        w_cts: List[int] = []
        w_tids: List[int] = []
        key_streams: DefaultDict[str, List[int]] = defaultdict(list)
        entries: List[Tuple[Transaction, Optional[List[Violation]], int, int]] = []
        if batch is not None:
            # Columnar arrivals: route straight off the flat arrays (see
            # Aion.receive_many for the lazy-Transaction rationale).  SER
            # shape: Eq. 1 reports but does not reject, the snapshot point
            # is the commit timestamp.
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
                commit_ts = commits_col[position]
                lo = offsets_col[position]
                hi = offsets_col[position + 1]
                stats.route_ops += hi - lo
                pre: Optional[List[Violation]] = None
                if starts_col[position] > commit_ts:
                    pre = [
                        TimestampOrderViolation(
                            axiom=Axiom.TS_ORDER,
                            tid=tid,
                            start_ts=starts_col[position],
                            commit_ts=commit_ts,
                        )
                    ]
                txn = transaction_at(position)
                violation = sessions.observe(txn)
                external, writes, int_mismatches = resolve_columns(
                    kinds_col, keys_col, vals_col, lo, hi
                )
                if violation is not None or int_mismatches is not None:
                    if pre is None:
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
                    r_keys.append(key)
                    r_ts.append(commit_ts)
                    r_tids.append(tid)
                    r_vals.append(value)
                w_lo = len(w_keys)
                for key, value in writes.items():
                    key_streams[key].append((len(w_keys) << 1) | 1)
                    w_keys.append(key)
                    w_vals.append(value)
                    w_cts.append(commit_ts)
                    w_tids.append(tid)
                entries.append((txn, pre, w_lo, len(w_keys)))
        else:
            for txn in txns:
                tid = txn.tid
                commit_ts = txn.commit_ts
                stats.route_ops += len(txn.ops)
                pre = None
                if txn.start_ts > commit_ts:
                    # SER checking ignores start timestamps: report Eq. 1 but
                    # still process the transaction at its commit point.
                    pre = [
                        TimestampOrderViolation(
                            axiom=Axiom.TS_ORDER,
                            tid=tid,
                            start_ts=txn.start_ts,
                            commit_ts=commit_ts,
                        )
                    ]
                violation = sessions.observe(txn)
                writes, int_mismatches = resolve_writes(txn.ops)
                if violation is not None or int_mismatches is not None:
                    if pre is None:
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
                    r_keys.append(key)
                    r_ts.append(commit_ts)
                    r_tids.append(tid)
                    r_vals.append(op.value)
                w_lo = len(w_keys)
                for key, value in writes.items():
                    key_streams[key].append((len(w_keys) << 1) | 1)
                    w_keys.append(key)
                    w_vals.append(value)
                    w_cts.append(commit_ts)
                    w_tids.append(tid)
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

        # ---- frontier probe ----
        frontier = self._frontier
        ext_reads = self._ext_reads
        value_before = frontier.value_before
        insert_and_next_ts = frontier.insert_and_next_ts
        read_add = ext_reads.add
        collect_affected = ext_reads.collect_affected
        r_expected: List[Any] = [None] * n_reads
        w_reevals: Dict[int, List[Tuple[int, int, Any]]] = {}
        for key, stream in key_streams.items():
            for code in stream:
                index = code >> 1
                if code & 1:
                    commit_ts = w_cts[index]
                    tid = w_tids[index]
                    nxt_ts = insert_and_next_ts(key, commit_ts, w_vals[index], tid)
                    affected = collect_affected(
                        key,
                        commit_ts,
                        nxt_ts,
                        tid,
                        upper_inclusive=True,
                    )
                    if affected:
                        w_reevals[index] = affected
                else:
                    r_expected[index] = value_before(key, r_ts[index], BOTTOM)
                    read_add(key, r_ts[index], r_tids[index], r_vals[index])
        if timing:
            t_verdict0 = perf_counter()
            stats.probe_seconds += t_verdict0 - t_probe0
        else:
            t_verdict0 = 0.0

        # ---- verdict ----
        if n_reads:
            ext.track_columns(r_tids, r_keys, r_ts, r_vals, r_expected, now, BOTTOM)
            stats.verdict_tracks += n_reads

        report = self._report
        reevaluate = ext.reevaluate
        resident = self._resident
        pending_cts = self._resident_cts_pending.append
        n_reevals = 0
        n_rejected = 0
        for txn, pre, w_lo, w_hi in entries:
            if pre is not None:
                for violation in pre:
                    report(violation)
            for index in range(w_lo, w_hi):
                affected = w_reevals.get(index)
                if affected is not None:
                    key = w_keys[index]
                    value = w_vals[index]
                    n_reevals += len(affected)
                    for _sts, reader_tid, actual in affected:
                        reevaluate(reader_tid, key, actual == value, value, now)
            tid = txn.tid
            resident[tid] = txn
            pending_cts((txn.commit_ts, tid))
            if txn.start_ts > txn.commit_ts:
                n_rejected += 1
        # ``processed`` counts accepted transactions only, as in Aion: an
        # Eq. 1 offender is still checked at its commit point, not counted.
        self.processed += len(entries) - n_rejected
        stats.verdict_reevals += n_reevals
        if batch is not None:
            ext.arm_timers(batch.tids, now)
        else:
            ext.arm_timers([txn.tid for txn in txns], now)
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
                        "checker": "aion-ser",
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

    def _receive_one(self, txn: Transaction, now: float) -> None:
        if txn.start_ts > txn.commit_ts:
            self._report(
                TimestampOrderViolation(
                    axiom=Axiom.TS_ORDER,
                    tid=txn.tid,
                    start_ts=txn.start_ts,
                    commit_ts=txn.commit_ts,
                )
            )
            # SER checking ignores start timestamps, so the transaction is
            # still simulated at its commit point.

        for op in txn.ops:
            if op.kind is OpKind.APPEND:
                raise ValueError(
                    "Aion-SER checks key-value histories online; list "
                    "(append) histories are checked offline by Chronos-SER"
                )

        # Restore all spilled state: the re-check boundary (next version
        # of each written key) may be spilled in a higher segment.
        if self._collected_upto is not None and txn.commit_ts <= self._collected_upto:
            self._reload_below(None)

        violation = self._sessions.observe(txn)
        if violation is not None:
            self._report(violation)

        tid = txn.tid
        snapshot_ts = txn.commit_ts

        writes = simulate_transaction_ops(
            txn,
            lambda key: self._predecessor_value(key, snapshot_ts),
            lambda key, exp, act: None,  # EXT handled with tracking below
            lambda key, exp, act: self._report(
                IntViolation(axiom=Axiom.INT, tid=tid, key=key, expected=exp, actual=act)
            ),
        )
        for key, op in txn.external_reads.items():
            expected = self._predecessor_value(key, snapshot_ts)
            self._ext.track(
                tid, key, snapshot_ts, op.value, ok=values_match(expected, op.value),
                expected=expected, now=now,
            )
            self._ext_reads.add(key, snapshot_ts, tid, op.value)

        for key, value in writes.items():
            nxt = self._frontier.insert_and_next(key, txn.commit_ts, value, tid)
            next_ts = nxt[0] if nxt is not None else None
            for _, reader_tid, actual in self._ext_reads.affected_by(
                key, txn.commit_ts, next_ts, upper_inclusive=True
            ):
                if reader_tid == tid:
                    continue  # a writer never observes its own version
                self._ext.reevaluate(reader_tid, key, actual == value, value, now)

        self._resident[tid] = txn
        self._resident_cts_pending.append((txn.commit_ts, tid))
        if txn.start_ts <= txn.commit_ts:
            self.processed += 1

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
        """Per-stage operation counters of the staged batch kernel."""
        return self._kernel_stats

    def estimated_bytes(self) -> int:
        """Deep-size estimate of the checker's live structures."""
        return deep_sizeof((self._frontier, self._ext_reads, self._resident, self._ext))

    def scan_step_totals(self) -> Tuple[int, int]:
        """SER keeps no writer-interval index; no scan counters accrue."""
        return 0, 0

    # ------------------------------------------------------------------
    # Garbage collection hooks (the cycle itself is SpillingGc's; SER
    # keeps no writer intervals, so only the frontier is evicted)
    # ------------------------------------------------------------------

    def _evict_columns(self, ts: int) -> Tuple[VersionColumns, IntervalColumns]:
        return self._frontier.evict_below(ts), empty_columns()

    def _merge_columns(self, versions: VersionColumns, intervals: IntervalColumns) -> None:
        self._frontier.merge(versions)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _predecessor_value(self, key: str, commit_ts: int) -> Any:
        version = self._frontier.latest_before(key, commit_ts)
        # A strict floor below the collected boundary may be stale or
        # absent while newer spilled versions exist; reload in that case.
        if (
            self._spill is not None
            and self._collected_upto is not None
            and commit_ts <= self._collected_upto
        ):
            spilled_min = self._spill.min_spilled_ts()
            if spilled_min is not None and spilled_min < commit_ts:
                self._reload_below(commit_ts)
                version = self._frontier.latest_before(key, commit_ts)
        return BOTTOM if version is None else version[1]

    def _report(self, violation: Violation) -> None:
        self._result.add(violation)
        self._fresh.append(violation)

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
        # Same 1:1 invariant as Aion: a finalized batch as large as the
        # index covers it entirely (end-of-stream flush shape).
        ext_reads = self._ext_reads
        if len(verdicts) == len(ext_reads):
            ext_reads.clear()
            return
        ext_reads.remove_batch(
            [(v[EV_KEY], v[EV_SNAPSHOT_TS], v[EV_TID]) for v in verdicts]
        )
