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
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

__all__ = [
    "ExtVerdict",
    "ExtStatusTracker",
    "FlipFlopStats",
    "EV_TID",
    "EV_KEY",
    "EV_SNAPSHOT_TS",
    "EV_ACTUAL",
    "EV_OK",
    "EV_EXPECTED",
    "EV_FIRST_SEEN",
    "EV_LAST_CHANGE",
    "EV_FLIPS",
    "EV_FINALIZED",
    "EV_WRONG_SINCE",
]

# A tentative EXT verdict is a plain mutable list record, one per
# external read (one (txn, key) pair).  The batch kernel constructs one
# per external read on the ingestion hot path; a list literal beats any
# class instantiation there (no __init__ frame, no attribute stores),
# and the verdict pass mutates ok/flips/wrong_since in place.  The index
# constants below are the field contract shared with the checkers'
# violation reporters.
EV_TID = 0
EV_KEY = 1
EV_SNAPSHOT_TS = 2
EV_ACTUAL = 3
EV_OK = 4
EV_EXPECTED = 5
EV_FIRST_SEEN = 6
EV_LAST_CHANGE = 7
EV_FLIPS = 8
EV_FINALIZED = 9
#: Set when the verdict first became wrong; cleared when corrected.
EV_WRONG_SINCE = 10

#: Type alias for one verdict record — ``List[Any]`` indexed by ``EV_*``.
ExtVerdict = List[Any]


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
    transaction is finalized: still-⊥ verdicts are reported through the
    ``on_violation`` callback, and the (txn, key) pair stops being
    re-checked (Algorithm 3, TIMEOUT / lines 40–41).
    """

    def __init__(
        self,
        *,
        timeout: float,
        on_violation: Callable[[ExtVerdict], None],
        on_finalized: Optional[Callable[[ExtVerdict], None]] = None,
        on_finalized_batch: Optional[Callable[[List[ExtVerdict]], None]] = None,
    ) -> None:
        self._timeout = timeout
        self._on_violation = on_violation
        self._on_finalized = on_finalized
        #: Alternative to ``on_finalized``: delivered once per
        #: :meth:`advance_to` with every verdict finalized by that call,
        #: so the owner can drop finalized reads from its read index in
        #: one grouped pass instead of one callback per verdict.
        self._on_finalized_batch = on_finalized_batch
        self._verdicts: Dict[Tuple[int, str], ExtVerdict] = {}
        #: (deadline, sequence, tids) — the sequence number keeps entries
        #: totally ordered so equal deadlines never compare tid tuples.
        self._deadlines: List[Tuple[float, int, Tuple[int, ...]]] = []
        self._deadline_seq = 0
        self._txn_pairs: Dict[int, List[Tuple[int, str]]] = {}
        self._timed_out: Set[int] = set()
        self.stats = FlipFlopStats()

    def __len__(self) -> int:
        return len(self._verdicts)

    def track_columns(
        self,
        tids: List[int],
        keys: List[str],
        snapshot_ts: List[int],
        actuals: List[Any],
        expecteds: List[Any],
        now: float,
        bottom: Any,
    ) -> None:
        """Register initial verdicts for a whole batch of external reads,
        as parallel arrays straight from the batch kernel's route pass —
        no per-item record tuples.

        The initial verdict (expected equals actual, with ``bottom``
        matching a ``None`` client read) is computed inline —
        one fused pass instead of a separate ok column.  Exploits batch
        order — a transaction's external reads are contiguous in the
        arrays — to look up the per-transaction pair list once per run of
        equal tids instead of once per read.
        """
        verdicts = self._verdicts
        txn_pairs = self._txn_pairs
        last_tid: Optional[int] = None
        pairs: Optional[List[Tuple[int, str]]] = None
        for tid, key, sts, actual, expected in zip(
            tids, keys, snapshot_ts, actuals, expecteds
        ):
            ok = (actual is None) if expected is bottom else (expected == actual)
            pair = (tid, key)
            verdicts[pair] = [
                tid, key, sts, actual, ok, expected,
                now, now, 0, False, None if ok else now,
            ]
            if tid != last_tid:
                pairs = txn_pairs.get(tid)
                if pairs is None:
                    pairs = txn_pairs[tid] = []
                last_tid = tid
            pairs.append(pair)
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

    def reevaluate(self, tid: int, key: str, ok: bool, expected: Any, now: float) -> Optional[ExtVerdict]:
        """Apply a re-check result; no-op for finalized or unknown pairs."""
        verdict = self._verdicts.get((tid, key))
        if verdict is None or verdict[EV_FINALIZED]:
            return None
        if ok != verdict[EV_OK]:
            verdict[EV_FLIPS] += 1
            verdict[EV_LAST_CHANGE] = now
            if ok:
                wrong_since = verdict[EV_WRONG_SINCE]
                if wrong_since is not None:
                    self.stats.rectify_times.append(now - wrong_since)
                    verdict[EV_WRONG_SINCE] = None
            else:
                verdict[EV_WRONG_SINCE] = now
        verdict[EV_OK] = ok
        verdict[EV_EXPECTED] = expected
        if verdict[EV_FLIPS] > 0:
            self.stats.flipped_tids.add(tid)
        return verdict

    def is_timed_out(self, tid: int) -> bool:
        return tid in self._timed_out

    def advance_to(self, now: float) -> List[ExtVerdict]:
        """Finalize every transaction whose deadline has passed.

        Returns the verdicts finalized in this call (both ⊤ and ⊥); ⊥
        verdicts are additionally delivered to ``on_violation``.
        """
        deadlines = self._deadlines
        if not deadlines or deadlines[0][0] > now:
            return []
        if now == float("inf"):
            return self._finalize_all()
        finalized: List[ExtVerdict] = []
        verdicts = self._verdicts
        txn_pairs = self._txn_pairs
        timed_out = self._timed_out
        stats = self.stats
        flips_per_pair = stats.flips_per_pair
        heappop = heapq.heappop
        while deadlines and deadlines[0][0] <= now:
            _, _, tids = heappop(deadlines)
            for tid in tids:
                if tid in timed_out:
                    continue
                timed_out.add(tid)
                for pair in txn_pairs.pop(tid, ()):
                    verdict = verdicts.pop(pair, None)
                    if verdict is None or verdict[EV_FINALIZED]:
                        continue
                    verdict[EV_FINALIZED] = True
                    stats.n_finalized += 1
                    flips = verdict[EV_FLIPS]
                    if flips > 0:
                        flips_per_pair[flips] = flips_per_pair.get(flips, 0) + 1
                    finalized.append(verdict)
                    if not verdict[EV_OK]:
                        stats.n_final_violations += 1
                        self._on_violation(verdict)
                    if self._on_finalized is not None:
                        self._on_finalized(verdict)
        if finalized and self._on_finalized_batch is not None:
            self._on_finalized_batch(finalized)
        return finalized

    def _finalize_all(self) -> List[ExtVerdict]:
        """End-of-stream fast path: every armed deadline is due at once.

        Iterating the verdict dict replaces one ``dict.pop`` per pair and
        one ``txn_pairs.pop`` per transaction with two clears.  Order is
        preserved exactly: live verdicts sit in the dict in track order —
        batch arrival order — which is the same order the heap-driven loop
        visits them (equal-deadline entries pop in arming sequence, tids
        within an entry and pairs within a transaction are in arrival
        order), so reported violations come out identically.
        """
        deadlines = self._deadlines
        timed_out = self._timed_out
        while deadlines:
            for tid in deadlines.pop()[2]:
                timed_out.add(tid)
        stats = self.stats
        flips_per_pair = stats.flips_per_pair
        finalized: List[ExtVerdict] = []
        append = finalized.append
        on_finalized = self._on_finalized
        on_violation = self._on_violation
        # Every transaction with a live verdict has an entry in
        # ``_txn_pairs``; when all of them are armed, the per-verdict
        # membership test is dead weight.
        check_armed = not timed_out.issuperset(self._txn_pairs)
        n_violations = 0
        for verdict in self._verdicts.values():
            if check_armed and verdict[EV_TID] not in timed_out:
                # Tracked but never armed: not yet due, keep it live.
                continue
            verdict[EV_FINALIZED] = True
            flips = verdict[EV_FLIPS]
            if flips > 0:
                flips_per_pair[flips] = flips_per_pair.get(flips, 0) + 1
            append(verdict)
            if not verdict[EV_OK]:
                n_violations += 1
                on_violation(verdict)
            if on_finalized is not None:
                on_finalized(verdict)
        stats.n_finalized += len(finalized)
        stats.n_final_violations += n_violations
        if len(finalized) == len(self._verdicts):
            self._verdicts.clear()
            self._txn_pairs.clear()
        else:  # pragma: no cover - unarmed verdicts are not produced by the checkers
            for verdict in finalized:
                del self._verdicts[(verdict[EV_TID], verdict[EV_KEY])]
                self._txn_pairs.pop(verdict[EV_TID], None)
        if finalized and self._on_finalized_batch is not None:
            self._on_finalized_batch(finalized)
        return finalized

    def flush(self) -> List[ExtVerdict]:
        """Finalize everything regardless of deadlines (end of stream)."""
        return self.advance_to(float("inf"))

    def pending_pairs(self) -> int:
        return len(self._verdicts)

    def min_pending_snapshot_ts(self) -> Optional[int]:
        """Smallest snapshot point among unfinalized reads.

        Garbage collection must not evict frontier versions at or above
        this point minus one, or pending re-checks would consult spilled
        state on every arrival.
        """
        if not self._verdicts:
            return None
        return min(v[EV_SNAPSHOT_TS] for v in self._verdicts.values())

