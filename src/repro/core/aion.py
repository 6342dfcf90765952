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
  overlap query on the same versioned frontier, whose entries carry
  each writer's start — one comparison on a key whose writers never
  overlapped — reporting each conflicting pair once, attributed to the
  transaction with the smaller commit timestamp;

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

The checker keeps no transaction.  The paper's Aion must (its step ③
re-checks *transactions*); here steps ② and ③ run against the per-key
structures and the tracker's flat records, so once ``receive_many``
returns nothing refers to an arrival or to the batch it came in — what
stays "resident" per arrival is one ``tid -> commit_ts`` index entry.

Garbage collection (:meth:`Aion.collect_below`, implemented once for all
online checkers by :class:`~repro.core.spill.SpillingGc`) transfers
frontier entries below a GC-safe timestamp to a disk
:class:`~repro.core.spill.SpillStore` and releases the index entries
below it; the checker transparently reloads the spilled segments when a
severely delayed transaction forces a query below the in-memory boundary.

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
from itertools import compress
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.common import BOTTOM, SessionTracker
from repro.core.ext_status import (
    REC_SNAPSHOT_TS,
    REC_TID,
    ExtRecord,
    ExtStatusTracker,
    FlipFlopStats,
    record_keys,
)
from repro.core.kernel import KernelStats
from repro.core.spill import GcReport, SpillingGc
from repro.core.versioned import (
    ExtReadIndex,
    VersionColumns,
    VersionedFrontier,
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
from repro.histories.model import Transaction
from repro.core.colpack import ColumnarBatch
from repro.util.hostgc import paused
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

    #: SI reads a transaction's snapshot at its *start* timestamp.  The
    #: one substitution that turns the kernel into the SER checker (§VI)
    #: is to ignore start timestamps — :class:`~repro.core.aion_ser.
    #: AionSer` sets this; ``receive_many`` reads it once per batch.
    _ignores_start_ts = False
    _APPEND_ERROR = (
        "Aion checks key-value histories online; list (append) "
        "histories are checked offline by Chronos"
    )

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
        self._sessions = SessionTracker()
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

    # Kept only for the ladder's aion.receive_tps / aionser.receive_tps rungs.
    def receive(self, txn: Transaction) -> None:
        """Process one incoming transaction: a batch of one."""
        self.receive_many([txn])

    def receive_many(self, txns) -> None:
        """Process a batch of arrivals through the staged batch kernel.

        The one implementation of Algorithm 3: equivalent to receiving the
        batch's transactions one at a time under a clock frozen for the
        duration of the batch (every split of a stream into batches gives
        the same reports in the same order, which the differential suite
        asserts against each other and against Chronos), but structured as
        three flat passes over parallel op arrays instead of a per-
        transaction walk.

        ``txns`` is a :class:`~repro.core.colpack.ColumnarBatch` or any
        iterable of :class:`Transaction` objects; the latter is flattened
        once at entry (:meth:`ColumnarBatch.from_transactions`), so there
        is one route loop and it reads columns only:

        **route** — decode the batch's columns into read arrays (keys /
        snapshot points / readers / observed values) and write arrays
        (keys / values / intervals) plus one op stream per key, running
        the order-stable per-transaction work (Eq. 1, session tracking,
        the INT rules) as it goes: one walk of a transaction's ops files
        each external read when it meets it and each written key's final
        value, and keeps of the transaction only its tid, commit point,
        first write slot and — when it has any — its stable violations;

        **frontier probe** — walk each key's op stream in arrival order
        against the versioned structures: visibility floors for external
        reads, the overlap query, insert and successor of each write on
        the frontier's one list set, and the affected-reader sweep —
        per-key grouping amortizes the index descents a per-op walk pays
        per operation;

        **verdict** — track all EXT verdicts in one bulk call, apply the
        re-evaluations in write order (they report nothing), then — only
        if the batch has a reject, a stable violation or a conflict —
        walk it in arrival order emitting violations, so reports come
        out in arrival order.

        Correctness: per-key operations preserve arrival order within
        each stream (a transaction's reads precede its writes, matching
        steps ① and ③), operations on distinct keys touch disjoint state
        and commute, and global effects are applied in arrival order by
        the verdict pass.  Tracking a batch's reads before applying its
        re-evaluations is safe because a pair's re-evaluations only ever
        originate from writes later in its key's stream than the pair's
        own read.

        Every online checker runs this method.  :class:`~repro.core.
        sharded.ShardedAion` overrides two seams — :meth:`_new_key_streams`
        (where the route pass files each key's stream) and :meth:`_probe`
        (which structures the streams run against);
        :class:`~repro.core.aion_ser.AionSer` overrides :meth:`_probe`
        and sets :attr:`_ignores_start_ts`, which here selects the
        snapshot column (commit instead of start timestamp), keeps an
        Eq. 1 offender in the batch (reported and checked, not counted)
        and moves the reload test to the commit timestamp.

        The whole batch runs with the host collector paused
        (:mod:`repro.util.hostgc`): every container the kernel builds is
        acyclic, so the dozen passes a 500-transaction batch would
        trigger free nothing.
        """
        with paused():
            self._receive_batch(txns)

    def _receive_batch(self, batch) -> None:
        # Transaction objects are flattened once, at the edge: the one
        # route loop below reads columns only.
        if not isinstance(batch, ColumnarBatch):
            batch = ColumnarBatch.from_transactions(
                batch if isinstance(batch, (list, tuple)) else list(batch)
            )
        # Validate the whole batch before mutating any state: a rejected
        # append mid-loop would otherwise leave earlier batch members
        # tracked but timer-less.
        if batch.has_appends:
            raise ValueError(self._APPEND_ERROR)
        now = self._clock()
        ext = self._ext
        ext.advance_to(now)
        n = len(batch)
        if not n:
            return
        optimized = self.config.optimized_recheck
        ignores_start = self._ignores_start_ts
        collected = self._collected_upto
        stats = self._kernel_stats
        perf_counter = time.perf_counter
        timing = stats.timing_enabled()
        track_total = timing or stats.slow_threshold > 0.0
        t_batch0 = perf_counter() if track_total else 0.0
        stats.batches += 1
        stats.txns += n
        if n > stats.max_batch:
            stats.max_batch = n
        starts_col = batch.starts
        commits_col = batch.commits
        snapshots_col = commits_col if ignores_start else starts_col
        offsets_col = batch.op_offsets
        kinds_col = batch.op_kinds

        # Reload-on-demand (▧), hoisted to the batch boundary: a severely
        # delayed transaction — one accepted with its snapshot point at
        # or below the GC boundary — forces ALL spilled state back (the
        # step-③ re-check range is bounded by *next* versions, which may
        # sit in higher segments), and the ablation re-checks arbitrarily
        # old snapshot points on every write.  Reloading before the batch
        # instead of at the transaction's sequence point is verdict-
        # equivalent: reloaded data is strictly older than each key's
        # retained newest-evictable version, so no floor/successor query
        # issued by the preceding above-boundary transactions can observe
        # it.
        if self._spill is not None and len(self._spill) > 0:

            def has_write(position: int) -> bool:
                return 1 in kinds_col[offsets_col[position] : offsets_col[position + 1]]

            accepted = (
                range(n)
                if ignores_start
                else [p for p in range(n) if starts_col[p] <= commits_col[p]]
            )
            if (
                collected is not None and any(snapshots_col[p] <= collected for p in accepted)
            ) or (not optimized and any(map(has_write, accepted))):
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
        # What the verdict pass needs of a transaction — never the arrival
        # itself, which must not outlive the batch: the accepted tids and
        # commit timestamps, the first write slot per position (its writes
        # end where the next position's begin), the end of each tracked
        # transaction's external reads, and, only for a position that has
        # them, its stable violations.  An Eq. 1 offender is rejected —
        # its violation its only trace — unless the checker ignores start
        # timestamps: then it is reported and checked like any other
        # arrival, just not counted as processed.
        a_tids: List[int] = []
        a_commits: List[int] = []
        w_los: List[int] = []
        r_bounds: List[int] = []
        stable: Dict[int, List[Violation]] = {}
        n_uncounted = 0
        n_route_ops = 0
        r_code = 0  # the next read's stream code: its index << 1
        tids_col = batch.tids
        sids_col = batch.sids
        snos_col = batch.snos
        keys_col = batch.op_keys
        vals_col = batch.op_values
        for position in range(n):
            tid = tids_col[position]
            start_ts = starts_col[position]
            commit_ts = commits_col[position]
            lo = offsets_col[position]
            hi = offsets_col[position + 1]
            n_route_ops += hi - lo
            w_los.append(len(w_keys))
            pre: Optional[List[Violation]] = None
            if start_ts > commit_ts:  # Eq. 1 (lines 3:4–3:5)
                pre = stable[position] = [
                    TimestampOrderViolation(
                        axiom=Axiom.TS_ORDER, tid=tid, start_ts=start_ts, commit_ts=commit_ts
                    )
                ]
                if not ignores_start:
                    continue
                n_uncounted += 1
            snapshot_ts = snapshots_col[position]
            violation = sessions.observe(  # lines 3:7–3:10
                tid, sids_col[position], snos_col[position], snapshot_ts, commit_ts
            )
            if violation is not None:
                if pre is None:
                    pre = stable[position] = []
                pre.append(violation)
            a_tids.append(tid)
            a_commits.append(commit_ts)
            # The INT rules of ``core.common.simulate`` without a frontier
            # (EXT is the probe pass's job): ``local`` holds each touched
            # key's latest value, so the first read of an untouched key is
            # an external read; ``written`` each written key's slot, which
            # a later write to the key overwrites with the final value.
            local: Dict[str, Any] = {}
            written: Dict[str, int] = {}
            r_lo = len(r_keys)
            for kind, key, value in zip(kinds_col[lo:hi], keys_col[lo:hi], vals_col[lo:hi]):
                if kind == 1:  # OP_WRITE
                    local[key] = value
                    slot = written.get(key)
                    if slot is None:
                        slot = written[key] = len(w_keys)
                        key_streams[key].append((slot << 1) | 1)
                        w_keys_append(key)
                        w_vals_append(value)
                        w_starts_append(start_ts)
                        w_cts_append(commit_ts)
                        w_tids_append(tid)
                    else:
                        w_vals[slot] = value
                    continue
                prior = local.get(key, local)  # ``local``: never an op value
                if prior is local:
                    key_streams[key].append(r_code)
                    r_code += 2
                    r_keys_append(key)
                    r_ts_append(snapshot_ts)
                    r_tids_append(tid)
                    r_vals_append(value)
                elif prior != value:
                    if pre is None:
                        pre = stable[position] = []
                    pre.append(
                        IntViolation(
                            axiom=Axiom.INT, tid=tid, key=key, expected=prior, actual=value
                        )
                    )
                local[key] = value
            if len(r_keys) > r_lo:
                r_bounds.append(len(r_keys))

        stats.route_ops += n_route_ops
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
            key_streams, r_ts, r_tids, w_vals, w_starts, w_cts, w_tids
        )
        if timing:
            t_verdict0 = perf_counter()
            stats.probe_seconds += t_verdict0 - t_probe0
        else:
            t_verdict0 = 0.0

        # ---- verdict: bulk-track, re-evaluate, report in arrival order.
        if n_reads:
            ext.track_columns(r_tids, r_keys, r_ts, r_vals, r_expected, now, r_bounds)
            stats.verdict_tracks += n_reads

        # Re-evaluations report nothing (the tracker holds what each
        # reader observed and decides the verdict; a row says whom to
        # re-check), so they run apart from the reports, in write order.
        n_reevals = 0
        reevaluate = ext.reevaluate
        for index in compress(range(n_writes), w_reevals):
            affected = w_reevals[index]
            key = w_keys[index]
            n_reevals += len(affected)
            if optimized:
                value = w_vals[index]
                for reader_tid in affected:
                    reevaluate(reader_tid, key, value, now)
            else:
                for expected, reader_tid in affected:
                    reevaluate(reader_tid, key, expected, now)
        # Reports touch only the result: a batch with nothing to report —
        # no reject, no stable violation, no conflict — is not walked.
        n_conflicts = 0
        if stable or any(w_conflicts):
            report = self._report
            stable_get = stable.get
            w_los.append(n_writes)
            for position in range(n):
                pre = stable_get(position)
                if pre is not None:
                    for violation in pre:
                        report(violation)
                for index in range(w_los[position], w_los[position + 1]):
                    hits = w_conflicts[index]
                    if hits is not None:
                        n_conflicts += len(hits)
                        for owner, end in hits:
                            self._report_conflict(
                                w_tids[index], w_cts[index], owner, end, w_keys[index]
                            )
        self._resident.update(zip(a_tids, a_commits))
        self.processed += len(a_tids) - n_uncounted
        stats.verdict_reevals += n_reevals
        stats.verdict_conflicts += n_conflicts
        ext.arm_timers(a_tids, now)  # line 3:3
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
    # Kernel seams (overridden by ShardedAion and AionSer)
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
            self._ext_reads,
            key_streams,
            r_ts,
            r_tids,
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
        with paused():
            self._ext.advance_to(self._clock())
        fresh, self._fresh = self._fresh, []
        return fresh

    def finalize(self) -> CheckResult:
        """Force-finalize all pending EXT verdicts and return the result.

        Used at end of stream; equivalent to waiting out every timer.
        """
        with paused():
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

    @property
    def pending_ext_txns(self) -> int:
        """Transactions whose EXT verdicts are still tentative."""
        return len(self._ext)

    @property
    def pending_ext_reads(self) -> int:
        """External reads indexed for step-③ re-checking."""
        return len(self._ext_reads)

    def estimated_bytes(self) -> int:
        """Deep-size estimate of the checker's live structures."""
        return deep_sizeof(
            (self._frontier, self._ext_reads, self._resident, self._ext)
        )

    # ------------------------------------------------------------------
    # Garbage collection hooks (the cycle itself is SpillingGc's)
    # ------------------------------------------------------------------

    def _evict_columns(self, ts: int) -> VersionColumns:
        return self._frontier.evict_below(ts)

    def _merge_columns(self, versions: VersionColumns) -> None:
        self._frontier.merge(versions)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _report(self, violation: Violation) -> None:
        self._result.add(violation)
        self._fresh.append(violation)

    def _report_conflict(
        self, tid: int, commit_ts: int, other_tid: int, other_cts: int, key: str
    ) -> None:
        # One report per pair, attributed to the smaller commit timestamp
        # (matches Chronos's commit-event reporting convention).
        if commit_ts < other_cts:
            earlier, later = tid, other_tid
        else:
            earlier, later = other_tid, tid
        self._report(
            ConflictViolation(
                axiom=Axiom.NOCONFLICT,
                tid=earlier,
                key=key,
                conflicting_tids=frozenset({later}),
            )
        )

    def _report_ext_violation(self, tid: int, key: str, expected: Any, actual: Any) -> None:
        self._report(
            ExtViolation(axiom=Axiom.EXT, tid=tid, key=key, expected=expected, actual=actual)
        )

    def _drop_finalized_reads(self, records: List[ExtRecord], drained: bool) -> None:
        # Live index entries correspond 1:1 to live unfinalized verdicts
        # (every add is paired with a track, removal only happens here,
        # and pending reads are never GC-evicted), so once the tracker
        # has nothing pending the index holds nothing worth keeping —
        # the shape of the end-of-stream flush.
        ext_reads = self._ext_reads
        if drained:
            ext_reads.clear()
            return
        ext_reads.remove_batch(
            [
                (key, record[REC_SNAPSHOT_TS], record[REC_TID])
                for record in records
                for key in record_keys(record)
            ]
        )

