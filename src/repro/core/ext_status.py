"""EXT verdict tracking: flip-flops, timeouts, rectify times.

Asynchrony makes the EXT verdict of a transaction *unstable* (§III-C):
when a transaction is collected, the writer its read observed may simply
not have arrived yet.  Aion therefore keeps a tentative per-(transaction,
key) verdict — ``T.EXT`` in Algorithm 3 — re-evaluates it as out-of-order
transactions arrive, and only *reports* a violation when the
transaction's timer (5 s in the paper) expires with the verdict still ⊥.

This module tracks those verdicts together with the quantities §VI-C
studies:

- **flip-flops** — the number of ⊤/⊥ switches per (txn, key) pair
  (Fig 13a, 14, 17–19);
- **rectify times** — how long a tentative false positive/negative stood
  before being corrected (Fig 13b, 20, 21).

The tentative verdicts of one transaction are ONE flat mutable list::

    [tid, keys, snapshot_ts, *actual, *ok, *expected, *flips, *wrong_since]

a three-slot header — tid, the external read keys as a tuple and the
snapshot point, each stored once — followed by five parallel runs of
``len(keys)`` slots: the value the read observed, the tentative verdict,
the value the frontier last said it should have seen, the flip count,
and when the verdict became wrong (``None`` while it is right).  Read
``i`` of run ``r`` sits at ``_HEADER + r * len(keys) + i``, and a key's
``i`` is ``keys.index(key)``.  The record is the only place the checker
keeps what a pending read observed (the read index holds reader tids),
so the verdict rule lives here alone: :meth:`ExtStatusTracker.
track_columns` applies it on arrival and :meth:`ExtStatusTracker.
reevaluate` at every re-check.  One container per transaction is what
the host collector has to walk for ever after; a record per read (and a
``(tid, key)`` dict entry to find it) was the largest structure the
checker owned.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.histories.model import BOTTOM

__all__ = [
    "ExtRecord",
    "ExtStatusTracker",
    "FlipFlopStats",
    "REC_TID",
    "REC_KEYS",
    "REC_SNAPSHOT_TS",
]

# Record layout (module docstring).  The header offsets are the contract
# with the checkers' finalization hooks; the runs are private.
REC_TID = 0
REC_KEYS = 1
REC_SNAPSHOT_TS = 2
_HEADER = 3
_ACTUAL, _OK, _EXPECTED, _FLIPS, _WRONG_SINCE = range(5)

#: Type alias for one transaction's record.
ExtRecord = List[Any]


@dataclass
class FlipFlopStats:
    """Aggregates for the flip-flop figures."""

    #: flip count -> number of (txn, key) pairs with that many flips.
    flips_per_pair: Dict[int, int] = field(default_factory=dict)
    #: tids that experienced at least one flip.
    flipped_tids: Set[int] = field(default_factory=set)
    #: rectify times in (virtual) seconds.
    rectify_times: List[float] = field(default_factory=list)
    n_pairs: int = 0
    n_finalized: int = 0
    n_final_violations: int = 0

    def flip_histogram(self, buckets: Tuple[int, ...] = (1, 2, 3)) -> Dict[str, int]:
        """Histogram of flip counts as in Fig 13a: 1, 2, 3, 4+ buckets."""
        histogram = {str(b): 0 for b in buckets}
        histogram[f"{buckets[-1] + 1}+"] = 0
        for flips, count in self.flips_per_pair.items():
            if flips <= 0:
                continue
            if flips <= buckets[-1]:
                histogram[str(flips)] += count
            else:
                histogram[f"{buckets[-1] + 1}+"] += count
        return histogram

    def rectify_histogram(
        self, edges: Tuple[float, ...] = (0.001, 0.002, 0.010, 0.099, 1.0)
    ) -> Dict[str, int]:
        """Histogram of rectify times, bucketed like Fig 13b (seconds)."""
        labels = ["0-1ms", "1-2ms", "2-10ms", "10-99ms", "100-999ms", "1000+ms"]
        counts = [0] * len(labels)
        for value in self.rectify_times:
            if value < edges[0]:
                counts[0] += 1
            elif value < edges[1]:
                counts[1] += 1
            elif value < edges[2]:
                counts[2] += 1
            elif value < edges[3]:
                counts[3] += 1
            elif value < edges[4]:
                counts[4] += 1
            else:
                counts[5] += 1
        return dict(zip(labels, counts))


class ExtStatusTracker:
    """All live EXT verdicts plus the timeout queue.

    ``clock`` supplies the current (possibly virtual) time; each tracked
    transaction gets one deadline ``arrival + timeout``.  When
    :meth:`advance_to` passes a deadline, every verdict of that
    transaction is finalized: still-⊥ verdicts are reported through
    ``on_violation(tid, key, expected, actual)``, and the (txn, key) pair
    stops being re-checked (Algorithm 3, TIMEOUT / lines 40–41).
    """

    def __init__(
        self,
        *,
        timeout: float,
        on_violation: Callable[[int, str, Any, Any], None],
        on_finalized_batch: Optional[Callable[[List[ExtRecord], bool], None]] = None,
    ) -> None:
        self._timeout = timeout
        self._on_violation = on_violation
        #: Delivered once per :meth:`advance_to` with the records it
        #: finalized and whether that left nothing pending, so the owner
        #: can drop finalized reads from its read index in one grouped
        #: pass — or clear the index outright.
        self._on_finalized_batch = on_finalized_batch
        #: tid -> record, in track (= batch arrival) order.
        self._txns: Dict[int, ExtRecord] = {}
        #: (deadline, sequence, tids) — the sequence number keeps entries
        #: totally ordered so equal deadlines never compare tid tuples.
        self._deadlines: List[Tuple[float, int, Tuple[int, ...]]] = []
        self._deadline_seq = 0
        self.stats = FlipFlopStats()

    def __len__(self) -> int:
        """Transactions with tentative verdicts (not yet finalized)."""
        return len(self._txns)

    def track_columns(
        self,
        tids: List[int],
        keys: List[str],
        snapshot_ts: List[int],
        actuals: List[Any],
        expecteds: List[Any],
        now: float,
        bounds: List[int],
    ) -> None:
        """Register initial verdicts for a whole batch of external reads,
        as parallel arrays straight from the batch kernel's route pass.

        The verdict rule — here and in :meth:`reevaluate`, nowhere else —
        is ``expected == actual``, with ⊥v (no version visible, or ⊥v
        itself written) matching a ``None`` client read.  ``bounds`` holds
        one end offset per transaction: its reads are the slice from the
        previous bound (0 for the first) to its own, their keys distinct
        (the route pass meets each key's first read only), so each record
        is one slice per column.  A tid tracked twice — a retransmission,
        in one batch or in two — keeps one record, the later copy's.
        """
        oks = [
            (actual is None) if expected is BOTTOM else (expected == actual)
            for actual, expected in zip(actuals, expecteds)
        ]
        wrong_since = [None if ok else now for ok in oks]
        txns = self._txns
        lo = 0
        for hi in bounds:
            tid = tids[lo]
            txns[tid] = [
                tid, tuple(keys[lo:hi]), snapshot_ts[lo],
                *actuals[lo:hi],
                *oks[lo:hi],
                *expecteds[lo:hi],
                *[0] * (hi - lo),
                *wrong_since[lo:hi],
            ]
            lo = hi
        self.stats.n_pairs += len(tids)

    def arm_timers(self, tids: Iterable[int], now: float) -> None:
        """Arm one shared EXT re-checking deadline (line 3:3) for a whole
        arrival batch.

        Batched ingestion stamps every transaction of a batch with the
        same arrival time, so their deadlines coincide; a single heap
        entry per batch amortizes the push and the later pops.
        """
        tids = tuple(tids)
        if not tids:
            return
        heapq.heappush(self._deadlines, (now + self._timeout, self._deadline_seq, tids))
        self._deadline_seq += 1

    def reevaluate(self, tid: int, key: str, expected: Any, now: float) -> None:
        """Re-check ``tid``'s read of ``key`` against ``expected``, the
        value its snapshot sees now, by the rule of :meth:`track_columns`;
        no-op for finalized or unknown pairs."""
        record = self._txns.get(tid)
        if record is None:
            return
        keys = record[REC_KEYS]
        try:
            slot = _HEADER + keys.index(key)
        except ValueError:
            return
        width = len(keys)
        actual = record[slot + _ACTUAL * width]
        ok = (actual is None) if expected is BOTTOM else (expected == actual)
        ok_slot = slot + _OK * width
        if ok != record[ok_slot]:
            record[ok_slot] = ok
            record[slot + _FLIPS * width] += 1
            wrong_slot = slot + _WRONG_SINCE * width
            if ok:
                wrong_since = record[wrong_slot]
                if wrong_since is not None:
                    self.stats.rectify_times.append(now - wrong_since)
                    record[wrong_slot] = None
            else:
                record[wrong_slot] = now
            self.stats.flipped_tids.add(tid)
        record[slot + _EXPECTED * width] = expected

    def advance_to(self, now: float) -> List[ExtRecord]:
        """Finalize every transaction whose deadline has passed.

        Returns the records finalized in this call (⊤ and ⊥ verdicts
        alike); each ⊥ verdict is additionally delivered to
        ``on_violation``, in arming order, then read order.
        """
        deadlines = self._deadlines
        if not deadlines or deadlines[0][0] > now:
            return []
        if now == float("inf"):
            return self._finalize_all()
        finalized: List[ExtRecord] = []
        txns_pop = self._txns.pop
        heappop = heapq.heappop
        while deadlines and deadlines[0][0] <= now:
            _, _, tids = heappop(deadlines)
            for tid in tids:
                # None: no external reads, or a tid armed twice (a
                # retransmission) whose record an earlier deadline took.
                record = txns_pop(tid, None)
                if record is not None:
                    finalized.append(record)
        self._finalized(finalized)
        return finalized

    def _finalize_all(self) -> List[ExtRecord]:
        """End-of-stream fast path: every armed deadline is due at once.

        Taking the record dict whole replaces one ``dict.pop`` per
        transaction with one clear (every record is armed: the checkers
        track and arm a batch in the same call).  Order is preserved
        exactly: live records sit in the dict in track order — batch
        arrival order — which is the same order the heap-driven loop
        visits them (equal-deadline entries pop in arming sequence, tids
        within an entry are in arrival order), so reported violations
        come out identically.
        """
        self._deadlines.clear()
        finalized = list(self._txns.values())
        self._txns.clear()
        self._finalized(finalized)
        return finalized

    def _finalized(self, records: List[ExtRecord]) -> None:
        """Account for and report records just taken off the live set."""
        if not records:
            return
        stats = self.stats
        flips_per_pair = stats.flips_per_pair
        on_violation = self._on_violation
        n_reads = 0
        n_violations = 0
        for record in records:
            keys = record[REC_KEYS]
            width = len(keys)
            n_reads += width
            flips_lo = _HEADER + _FLIPS * width
            for flips in record[flips_lo : flips_lo + width]:
                if flips:
                    flips_per_pair[flips] = flips_per_pair.get(flips, 0) + 1
            ok_lo = _HEADER + _OK * width
            if not all(record[ok_lo : ok_lo + width]):
                tid = record[REC_TID]
                for index, key in enumerate(keys):
                    slot = _HEADER + index
                    if not record[slot + _OK * width]:
                        n_violations += 1
                        on_violation(
                            tid, key, record[slot + _EXPECTED * width], record[slot + _ACTUAL * width]
                        )
        stats.n_finalized += n_reads
        stats.n_final_violations += n_violations
        if self._on_finalized_batch is not None:
            self._on_finalized_batch(records, not self._txns)

    def flush(self) -> List[ExtRecord]:
        """Finalize everything regardless of deadlines (end of stream)."""
        return self.advance_to(float("inf"))

    def min_pending_snapshot_ts(self) -> Optional[int]:
        """Smallest snapshot point among unfinalized reads.

        Garbage collection must not evict frontier versions at or above
        this point minus one, or pending re-checks would consult spilled
        state on every arrival.
        """
        if not self._txns:
            return None
        return min(record[REC_SNAPSHOT_TS] for record in self._txns.values())
