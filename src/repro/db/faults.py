"""Fault injection for the violation-detection experiments (§V-D).

Two levels of fault are provided:

- **Engine-level**: :class:`SkewedOracle` wraps a timestamp oracle and
  occasionally shifts issued timestamps into the past, reproducing the
  clock-skew bug class the paper found in YugabyteDB v2.17.1.0 — the
  database still *executes* correctly in real time, but the recorded
  timestamps no longer justify the observed values, which the
  timestamp-based checkers flag (and black-box checkers may not).
- **Window-level**: :class:`FaultInjector` mutates a *window* — a list
  of transactions, changed in place — one axiom per fault (one
  ``_mutate_*`` function each), returning ground-truth
  :class:`FaultLabel` records so tests, benchmarks and the chaos
  campaign can assert that each fault class is detected by the matching
  axiom.  A correct history is one window, held by the injector; a live
  stream is many: batches *in flight* between a live engine's CDC feed
  and the checker daemon (see :mod:`repro.chaos`).

A held history is first rescaled: all timestamps are multiplied by a
constant factor, opening integer gaps so timestamps can be perturbed
without colliding; rescaling preserves order and therefore every
verdict.  Live windows are not rescaled — the campaign's oracle already
strides its timeline (see :class:`SkewedOracle`).
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.violations import Axiom
from repro.db.oracle import TimestampOracle
from repro.histories.model import History, INIT_TID, Operation, OpKind, Transaction

#: A window: transactions an injection mutates in place.
Window = List[Transaction]
#: key -> (commit_ts, tid) of the latest writer seen in earlier windows.
Observed = Dict[str, Tuple[int, int]]

__all__ = ["SkewedOracle", "FaultLabel", "FaultInjector"]


class SkewedOracle:
    """Wraps an oracle; with probability ``p`` shifts a timestamp back.

    Inner timestamps are multiplied by ``stride`` so the timeline has
    free slots, then a skewed timestamp lands ``1..max_skew`` inner ticks
    in the past (re-drawn upward on collision).  Timestamps stay unique
    but lose monotonicity, breaking the guarantee Definitions 5/6 rely
    on — the database still executes correctly in real time, so the
    recorded history no longer justifies the observed values.
    """

    def __init__(
        self,
        inner: TimestampOracle,
        *,
        probability: float = 0.05,
        max_skew: int = 50,
        stride: int = 16,
        rng: Optional[Random] = None,
    ) -> None:
        if stride < 2:
            raise ValueError("stride must be >= 2 to leave room for skew")
        self._inner = inner
        self._probability = probability
        self._max_skew = max_skew
        self._stride = stride
        self._rng = rng if rng is not None else Random(0xC10C)
        self._issued: set[int] = set()
        self.n_skewed = 0

    @property
    def probability(self) -> float:
        """Per-timestamp skew probability — writable, so a chaos
        schedule can switch skew on for a burst window and back off for
        clean windows on the same oracle."""
        return self._probability

    @probability.setter
    def probability(self, value: float) -> None:
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {value!r}")
        self._probability = value

    def next_ts(self, node_id: int = 0) -> int:
        ts = self._inner.next_ts(node_id) * self._stride
        if self._rng.random() < self._probability:
            skew = self._rng.randint(1, self._max_skew) * self._stride
            candidate = max(1, ts - skew)
            while candidate in self._issued:
                candidate += 1
            if candidate != ts:
                self.n_skewed += 1
            ts = candidate
        self._issued.add(ts)
        return ts


@dataclass(frozen=True)
class FaultLabel:
    """Ground truth for one injected fault."""

    axiom: Axiom
    tids: Tuple[int, ...]
    key: str = ""

    def describe(self) -> str:
        return f"injected {self.axiom.value} fault on txns {self.tids} key={self.key!r}"


class FaultInjector:
    """Injects labelled, axiom-targeted faults into windows of transactions.

    ``FaultInjector(history)`` holds the rescaled ``history`` as the
    default window of :meth:`inject` and the ``inject_*`` methods;
    :meth:`build` returns it with every fault applied.  A call that names
    a window mutates that list in place instead — a batch in flight, so
    a chaos campaign can corrupt a live stream the daemon is already
    checking.  Call :meth:`observe` with each live batch *after*
    injection so the cross-window last-writer map matches what the
    daemon actually saw.

    Every successful injection returns a ground-truth
    :class:`FaultLabel` (also appended to :attr:`labels`); ``None``
    means the window offered no eligible target and nothing was touched.
    """

    #: Gap opened between consecutive timestamps by rescaling.
    SCALE = 1000
    #: Injectable fault classes, in the cycling order of mixes and schedules.
    CLASSES = ("ext", "int", "session", "noconflict", "ts_order")

    def __init__(self, history: Optional[History] = None, *, seed: int = 0xFA17) -> None:
        self._rng = Random(seed)
        self.labels: List[FaultLabel] = []
        self._last_commit: Observed = {}
        scale = self.SCALE
        self._txns: Window = [
            _replace(txn, start_ts=txn.start_ts * scale, commit_ts=txn.commit_ts * scale)
            for txn in (history.transactions if history is not None else ())
        ]

    def build(self) -> History:
        """The held history with all requested faults applied."""
        return History(self._txns)

    def observe(self, window: Window) -> None:
        """Fold a (post-injection) live batch into the last-writer map,
        leaving out writers that break Eq. 1: the checker reports them
        (TS_ORDER) and installs none of their writes to overlap with."""
        for txn in window:
            if txn.start_ts > txn.commit_ts:
                continue
            for key in sorted(txn.write_keys):  # hash-seed independent
                seen = self._last_commit.get(key)
                if seen is None or txn.commit_ts > seen[0]:
                    self._last_commit[key] = (txn.commit_ts, txn.tid)

    def inject(self, kind: str, window: Optional[Window] = None) -> Optional[FaultLabel]:
        """Apply one fault of ``kind`` to ``window`` (default: the held history)."""
        mutate = _MUTATIONS.get(kind)
        if mutate is None:
            raise ValueError(f"unknown fault class {kind!r}")
        label = mutate(self._rng, self._txns if window is None else window, self._last_commit)
        if label is not None:
            self.labels.append(label)
        return label

    def inject_ext(self, window: Optional[Window] = None) -> Optional[FaultLabel]:
        """Corrupt one external read so it cannot match any frontier."""
        return self.inject("ext", window)

    def inject_int(self, window: Optional[Window] = None) -> Optional[FaultLabel]:
        """Append an internal read that contradicts the txn's own write."""
        return self.inject("int", window)

    def inject_session(self, window: Optional[Window] = None) -> Optional[FaultLabel]:
        """Swap the sequence numbers of two adjacent txns in a session."""
        return self.inject("session", window)

    def inject_noconflict(self, window: Optional[Window] = None) -> Optional[FaultLabel]:
        """Make two sequential writers of one key temporally overlap."""
        return self.inject("noconflict", window)

    def inject_ts_order(self, window: Optional[Window] = None) -> Optional[FaultLabel]:
        """Swap one writer's start and commit timestamps (Eq. 1)."""
        return self.inject("ts_order", window)

    def inject_mix(self, n_faults: int) -> List[FaultLabel]:
        """Inject ``n_faults`` faults into the held history, cycling
        through :data:`CLASSES`."""
        first = len(self.labels)
        for attempt in range(n_faults * 10):
            if len(self.labels) - first == n_faults:
                break
            self.inject(self.CLASSES[attempt % len(self.CLASSES)])
        return self.labels[first:]


#: The frozen benchmark ladder imports the injector under its old names.
HistoryFaultInjector = LiveFaultInjector = FaultInjector


# The mutations: each picks its target with ``rng``, replaces the
# mutated transaction(s) in the window ``txns`` and returns the label, or
# returns None (and touches nothing) when ``txns`` offers no eligible
# target.  ``observed`` is the injector's last-writer map; only
# NOCONFLICT reads it.


def _pick(
    rng: Random, txns: Window, eligible: Callable[[Transaction], Any]
) -> Optional[int]:
    """A seeded choice among the positions of eligible non-init txns."""
    candidates = [
        i for i, txn in enumerate(txns) if txn.tid != INIT_TID and eligible(txn)
    ]
    return rng.choice(candidates) if candidates else None


def _mutate_ext(rng: Random, txns: Window, observed: Observed) -> Optional[FaultLabel]:
    index = _pick(rng, txns, lambda txn: txn.external_reads)
    if index is None:
        return None
    txn = txns[index]
    key = rng.choice(sorted(txn.external_reads))
    # An external read is the first op on its key, so ``ops.index`` finds it.
    op = txn.external_reads[key]
    if op.kind is OpKind.READ_LIST:
        bad = op.value + (_poison(0),)
    else:
        bad = _poison(op.value)
    ops = list(txn.ops)
    ops[ops.index(op)] = Operation(op.kind, key, bad)
    txns[index] = _replace(txn, ops=ops)
    return FaultLabel(Axiom.EXT, (txn.tid,), key)


def _mutate_int(rng: Random, txns: Window, observed: Observed) -> Optional[FaultLabel]:
    index = _pick(rng, txns, lambda txn: txn.last_writes)
    if index is None:
        return None
    txn = txns[index]
    key = rng.choice(sorted(txn.last_writes))
    final = txn.last_writes[key]
    if isinstance(final, tuple):
        bad = Operation(OpKind.READ_LIST, key, (_poison(0),))
    else:
        bad = Operation(OpKind.READ, key, _poison(final))
    txns[index] = _replace(txn, ops=txn.ops + (bad,))
    return FaultLabel(Axiom.INT, (txn.tid,), key)


def _mutate_session(rng: Random, txns: Window, observed: Observed) -> Optional[FaultLabel]:
    by_sid: dict[int, List[int]] = {}
    for i, txn in enumerate(txns):
        if txn.tid != INIT_TID:
            by_sid.setdefault(txn.sid, []).append(i)
    eligible = [ids for ids in by_sid.values() if len(ids) >= 2]
    if not eligible:
        return None
    ids = rng.choice(eligible)
    pos = rng.randrange(len(ids) - 1)
    i, j = ids[pos], ids[pos + 1]
    a, b = txns[i], txns[j]
    txns[i] = _replace(a, sno=b.sno)
    txns[j] = _replace(b, sno=a.sno)
    return FaultLabel(Axiom.SESSION, (a.tid, b.tid))


def _mutate_noconflict(rng: Random, txns: Window, observed: Observed) -> Optional[FaultLabel]:
    # Walked in commit order, each writer of a key pairs with the key's
    # latest earlier-committed writer, in the window or observed before
    # it; a writer committed before an observed one has no known pair.
    last = dict(observed)
    pairs: List[Tuple[Tuple[int, int], int, str]] = []
    for i in sorted(range(len(txns)), key=lambda i: txns[i].commit_ts):
        txn = txns[i]
        if txn.tid == INIT_TID:
            continue
        # Sorted: ``write_keys`` is a set of str, whose iteration order
        # (and with it the chosen pair) would follow PYTHONHASHSEED.
        for key in sorted(txn.write_keys):
            seen = last.get(key)
            if seen is not None and seen[0] > txn.commit_ts:
                continue
            if seen is not None and seen[0] > 1:  # the new start stays positive
                pairs.append((seen, i, key))
            last[key] = (txn.commit_ts, txn.tid)
    if not pairs:
        return None
    (earlier_commit, earlier_tid), index, key = rng.choice(pairs)
    later = txns[index]
    # Pull the later writer's start just below the earlier's commit; the
    # rescaled (or strided) timeline guarantees a fresh unique timestamp.
    txns[index] = _replace(later, start_ts=earlier_commit - 1)
    return FaultLabel(Axiom.NOCONFLICT, (earlier_tid, later.tid), key)


def _mutate_ts_order(rng: Random, txns: Window, observed: Observed) -> Optional[FaultLabel]:
    index = _pick(rng, txns, lambda txn: txn.start_ts < txn.commit_ts)
    if index is None:
        return None
    txn = txns[index]
    txns[index] = _replace(txn, start_ts=txn.commit_ts, commit_ts=txn.start_ts)
    return FaultLabel(Axiom.TS_ORDER, (txn.tid,))


_MUTATIONS: Dict[str, Callable[[Random, Window, Observed], Optional[FaultLabel]]] = {
    "ext": _mutate_ext,
    "int": _mutate_int,
    "session": _mutate_session,
    "noconflict": _mutate_noconflict,
    "ts_order": _mutate_ts_order,
}


def _replace(txn: Transaction, **changes: Any) -> Transaction:
    """``txn`` with some constructor fields replaced (derived views recomputed)."""
    fields = {
        "tid": txn.tid,
        "sid": txn.sid,
        "sno": txn.sno,
        "ops": txn.ops,
        "start_ts": txn.start_ts,
        "commit_ts": txn.commit_ts,
    }
    fields.update(changes)
    return Transaction(**fields)


def _poison(value: object) -> int:
    """A value guaranteed not to occur in generated histories."""
    base = value if isinstance(value, int) else 0
    return base + 987_654_321
