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

The tentative verdicts of one transaction are ONE flat mutable list,
sized exactly::

    [tid, snapshot_ts, *keys, *actual, *state, flipped]

a two-slot header — tid and the snapshot point, each stored once —
followed by three parallel runs of ``width`` slots, the external read
keys inline first, and one trailing slot; so a record is ``3 + 3·width``
slots and ``width`` is ``(len(record) - 3) // 3``.  Read ``i`` has key
``record[2 + i]``, observed ``record[2 + width + i]`` and its verdict
is ``record[2 + 2·width + i]``; :func:`record_keys` is the keys' run.
The record is built by list concatenation, which allocates exactly
what it holds (an unpacking display over-allocates).  A verdict's
state is

- for ⊤, the small int ``flips << 1`` — nothing else is kept, since
  only a ⊥ pair is ever reported and a flip to ⊥ records the value
  the frontier named then;
- for ⊥, a ``[flips, expected, wrong_since]`` list: the flip count,
  the value the frontier last said the read should have seen, and when
  the verdict became wrong.

The trailing ``flipped`` slot is set at the record's first flip, which
is when :attr:`FlipFlopStats.n_flipped_txns` counts it.

**Shared values.**  A read whose observed value has the same exact
type, ``int`` or ``str``, as the version it is found to match stores
the version's object (the frontier holds it anyway), so the decoded
copy dies with its batch: a ⊤ read on arrival, and a ⊥ read when a
re-check rectifies it.  Only equal values of those two types are
interchangeable: ``True`` equals ``1`` and ``0.0`` equals ``-0.0``, but
a later ⊥ report would name the other one.

On the ladder's 20k SI stream, decoded as a daemon connection decodes
it (one key memo) and all still pending, the checker holds 679 B per
transaction in this layout; a keys tuple per record, display-built
records and rectified reads keeping their decoded values held 785 B.

The record is the only place the checker keeps what a pending read
observed (the read index holds reader tids), so the verdict rule lives
here alone: :meth:`ExtStatusTracker.track_columns` applies it on
arrival and :meth:`ExtStatusTracker.reevaluate` at every re-check.
One container per transaction, and a small list per ⊥ pair, is what
the host collector has to walk for ever after; a record per read (and a
``(tid, key)`` dict entry to find it) was the largest structure the
checker owned.

:class:`FlipFlopStats` keeps aggregates — one count per distinct flip
count, one per Fig-13b rectify bucket, and totals — so a daemon that
runs for ever holds the same statistics bytes after a billion
rectifications as after one.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.histories.model import BOTTOM

__all__ = [
    "ExtRecord",
    "ExtStatusTracker",
    "FlipFlopStats",
    "REC_TID",
    "REC_SNAPSHOT_TS",
    "REC_FLIPPED",
    "record_keys",
]

# Record layout (module docstring).  These offsets and
# :func:`record_keys` are the contract with the checkers' finalization
# hooks; the runs' offsets are private.
REC_TID = 0
REC_SNAPSHOT_TS = 1
REC_FLIPPED = -1
_HEADER = 2

#: Observed-value types whose equal objects are interchangeable, so a ⊤
#: or rectified read may hold the version's object instead of its own.
_SHAREABLE = frozenset((int, str))

#: A record's trailing ``flipped`` slot as tracked.
_UNFLIPPED = [False]

#: Upper edges (seconds) of the Fig-13b rectify buckets but the last.
_RECTIFY_EDGES = (0.001, 0.002, 0.010, 0.099, 1.0)
_RECTIFY_LABELS = ("0-1ms", "1-2ms", "2-10ms", "10-99ms", "100-999ms", "1000+ms")

#: Type alias for one transaction's record.
ExtRecord = List[Any]


def record_keys(record: ExtRecord) -> List[Any]:
    """The external read keys of ``record``, in read order."""
    return record[_HEADER : _HEADER + (len(record) - 3) // 3]


class FlipFlopStats:
    """Aggregates for the flip-flop figures, all of fixed size.

    ``flips_per_pair`` maps a flip count to the number of (txn, key)
    pairs with that many flips; ``n_flipped_txns`` counts transactions
    with at least one flip, at the first; ``rectify_counts`` holds the
    rectifications per Fig-13b bucket (:meth:`rectify_histogram`) and
    ``rectify_seconds`` the sum of their times in (virtual) seconds, in
    rectify order.
    """

    __slots__ = _fields = (
        "flips_per_pair",
        "n_flipped_txns",
        "rectify_counts",
        "rectify_seconds",
        "n_pairs",
        "n_finalized",
        "n_final_violations",
    )
    __hash__ = None  # type: ignore[assignment]

    def __init__(
        self,
        flips_per_pair: Optional[Dict[int, int]] = None,
        n_flipped_txns: int = 0,
        rectify_counts: Optional[List[int]] = None,
        rectify_seconds: float = 0.0,
        n_pairs: int = 0,
        n_finalized: int = 0,
        n_final_violations: int = 0,
    ) -> None:
        self.flips_per_pair = {} if flips_per_pair is None else flips_per_pair
        self.n_flipped_txns = n_flipped_txns
        self.rectify_counts = (
            [0] * len(_RECTIFY_LABELS) if rectify_counts is None else rectify_counts
        )
        self.rectify_seconds = rectify_seconds
        self.n_pairs = n_pairs
        self.n_finalized = n_finalized
        self.n_final_violations = n_final_violations

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"FlipFlopStats({shown})"

    @property
    def n_rectified(self) -> int:
        """Tentative wrong verdicts rectified so far."""
        return sum(self.rectify_counts)

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

    def rectify_histogram(self) -> Dict[str, int]:
        """Histogram of rectify times, bucketed like Fig 13b."""
        return dict(zip(_RECTIFY_LABELS, self.rectify_counts))


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
        is one slice per run.  A tid tracked twice — a retransmission,
        in one batch or in two — keeps one record, the later copy's.
        """
        # Two passes per read: the verdict state, and the observed value
        # (the version's object where the two are interchangeable — an
        # equal value of one exact shareable type is a ⊤ verdict).
        states = [
            0 if ((actual is None) if expected is BOTTOM else (expected == actual))
            else [0, expected, now]
            for actual, expected in zip(actuals, expecteds)
        ]
        stored = [
            expected
            if actual == expected and type(actual) is type(expected) in _SHAREABLE
            else actual
            for actual, expected in zip(actuals, expecteds)
        ]
        txns = self._txns
        lo = 0
        for hi in bounds:
            tid = tids[lo]
            txns[tid] = (
                [tid, snapshot_ts[lo]] + keys[lo:hi] + stored[lo:hi] + states[lo:hi] + _UNFLIPPED
            )
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
        width = (len(record) - 3) // 3
        try:
            slot = record.index(key, _HEADER, _HEADER + width) + width
        except ValueError:
            return
        actual = record[slot]
        ok = (actual is None) if expected is BOTTOM else (expected == actual)
        verdict = slot + width
        state = record[verdict]
        if type(state) is list:  # ⊥: where nearly every re-check lands
            if not ok:  # still ⊥: a report names the latest value
                state[1] = expected
                return
            stats = self.stats
            rectified = now - state[2]
            stats.rectify_counts[bisect_right(_RECTIFY_EDGES, rectified)] += 1
            stats.rectify_seconds += rectified
            record[verdict] = (state[0] + 1) << 1
            if type(actual) is type(expected) in _SHAREABLE:  # shared values
                record[slot] = expected
        elif ok:
            return
        else:
            record[verdict] = [(state >> 1) + 1, expected, now]
        if not record[REC_FLIPPED]:
            record[REC_FLIPPED] = True
            self.stats.n_flipped_txns += 1

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
            width = (len(record) - 3) // 3
            n_reads += width
            states = record[_HEADER + 2 * width : REC_FLIPPED]
            # A zero state is a ⊤ that never flipped: a record of only
            # those has nothing to count or report.
            if not any(states):
                continue
            for index, state in enumerate(states):
                if not state:
                    continue
                if type(state) is int:
                    flips = state >> 1
                else:
                    flips = state[0]
                    n_violations += 1
                    on_violation(
                        record[REC_TID],
                        record[_HEADER + index],
                        state[1],
                        record[_HEADER + width + index],
                    )
                    if not flips:
                        continue
                flips_per_pair[flips] = flips_per_pair.get(flips, 0) + 1
        stats.n_finalized += n_reads
        stats.n_final_violations += n_violations
        if self._on_finalized_batch is not None:
            self._on_finalized_batch(records, not self._txns)

    def flush(self) -> List[ExtRecord]:
        """Finalize everything regardless of deadlines (end of stream)."""
        return self.advance_to(float("inf"))
