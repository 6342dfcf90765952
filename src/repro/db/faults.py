"""Fault injection for the violation-detection experiments (§V-D).

Three levels of fault are provided:

- **Engine-level**: :class:`SkewedOracle` wraps a timestamp oracle and
  occasionally shifts issued timestamps into the past, reproducing the
  clock-skew bug class the paper found in YugabyteDB v2.17.1.0 — the
  database still *executes* correctly in real time, but the recorded
  timestamps no longer justify the observed values, which the
  timestamp-based checkers flag (and black-box checkers may not).
- **History-level**: :class:`HistoryFaultInjector` mutates a correct
  history in targeted ways, one axiom per fault, returning ground-truth
  :class:`FaultLabel` records so tests and benchmarks can assert that
  each injected fault class is detected by the matching axiom.
- **Stream-level**: :class:`LiveFaultInjector` applies the same
  axiom-targeted mutations (one ``_mutate_*`` function each; only
  NOCONFLICT differs) to transaction batches *in flight* between a
  live engine's CDC feed and the checker daemon — the chaos campaign's
  ground truth (see :mod:`repro.chaos`).

History-level injection first rescales all timestamps by a constant
factor, opening integer gaps so timestamps can be perturbed without
colliding; rescaling preserves order and therefore every verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Any, Callable, List, Optional, Tuple

from repro.core.violations import Axiom
from repro.db.oracle import TimestampOracle
from repro.histories.model import History, INIT_TID, Operation, OpKind, Transaction

__all__ = ["SkewedOracle", "FaultLabel", "HistoryFaultInjector", "LiveFaultInjector"]


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


class _Injector:
    """What both injectors share: the seeded RNG and the label list."""

    def __init__(self, seed: int) -> None:
        self._rng = Random(seed)
        self.labels: List[FaultLabel] = []

    def _keep(self, label: Optional[FaultLabel]) -> Optional[FaultLabel]:
        if label is not None:
            self.labels.append(label)
        return label


class HistoryFaultInjector(_Injector):
    """Injects labelled, axiom-targeted faults into a correct history."""

    #: Gap opened between consecutive timestamps by rescaling.
    SCALE = 1000

    def __init__(self, history: History, *, seed: int = 0xFA17) -> None:
        super().__init__(seed)
        scale = self.SCALE
        self._txns: List[Transaction] = [
            _replace(txn, start_ts=txn.start_ts * scale, commit_ts=txn.commit_ts * scale)
            for txn in history.transactions
        ]

    def build(self) -> History:
        """The mutated history with all requested faults applied."""
        return History(self._txns)

    def inject_ext(self) -> Optional[FaultLabel]:
        """Corrupt one external read so it cannot match any frontier."""
        return self._keep(_mutate_ext(self._rng, self._txns))

    def inject_int(self) -> Optional[FaultLabel]:
        """Append an internal read that contradicts the txn's own write."""
        return self._keep(_mutate_int(self._rng, self._txns))

    def inject_session(self) -> Optional[FaultLabel]:
        """Swap the sequence numbers of two adjacent txns in a session."""
        return self._keep(_mutate_session(self._rng, self._txns))

    def inject_noconflict(self) -> Optional[FaultLabel]:
        """Make two sequential writers of one key temporally overlap."""
        last_writer: dict[str, int] = {}
        pairs: List[Tuple[int, int, str]] = []
        order = sorted(
            range(len(self._txns)), key=lambda i: self._txns[i].commit_ts
        )
        for i in order:
            txn = self._txns[i]
            if txn.tid == INIT_TID:
                continue
            # Sorted: ``write_keys`` is a set of str, whose iteration order
            # (and with it the chosen pair) would follow PYTHONHASHSEED.
            for key in sorted(txn.write_keys):
                if key in last_writer:
                    pairs.append((last_writer[key], i, key))
                last_writer[key] = i
        if not pairs:
            return None
        i, j, key = self._rng.choice(pairs)
        earlier, later = self._txns[i], self._txns[j]
        # Pull the later writer's start just below the earlier's commit;
        # the opened SCALE gaps guarantee a fresh unique timestamp.
        new_start = earlier.commit_ts - 1
        if new_start <= 0 or new_start >= later.commit_ts:
            return None
        self._txns[j] = _replace(later, start_ts=new_start)
        return self._keep(FaultLabel(Axiom.NOCONFLICT, (earlier.tid, later.tid), key))

    def inject_ts_order(self) -> Optional[FaultLabel]:
        """Swap one writer's start and commit timestamps (Eq. 1)."""
        return self._keep(_mutate_ts_order(self._rng, self._txns))

    def inject_mix(self, n_faults: int) -> List[FaultLabel]:
        """Inject ``n_faults`` faults cycling through all axiom classes."""
        injectors = [
            self.inject_ext,
            self.inject_int,
            self.inject_session,
            self.inject_noconflict,
            self.inject_ts_order,
        ]
        applied: List[FaultLabel] = []
        attempts = 0
        while len(applied) < n_faults and attempts < n_faults * 10:
            injector = injectors[attempts % len(injectors)]
            label = injector()
            if label is not None:
                applied.append(label)
            attempts += 1
        return applied


class LiveFaultInjector(_Injector):
    """Streaming sibling of :class:`HistoryFaultInjector`.

    Mutates transaction *batches in flight* between the engine's CDC
    feed and the wire, so a chaos campaign can corrupt a live stream the
    daemon is already checking.  Unlike the offline injector there is no
    timestamp rescaling pass — the campaign's oracle already strides its
    timeline (see :class:`SkewedOracle`), leaving the integer gaps the
    ``noconflict`` and ``ts_order`` mutations need.

    Every successful injection returns a ground-truth
    :class:`FaultLabel` (also appended to :attr:`labels`); ``None``
    means the batch offered no eligible target and nothing was touched.
    Call :meth:`observe` with each batch *after* injection so the
    cross-batch last-writer map matches what the daemon actually saw.
    """

    #: Injectable fault classes, in the cycling order of schedules.
    CLASSES = ("ext", "int", "session", "noconflict", "ts_order")

    def __init__(self, *, seed: int = 0xFA17) -> None:
        super().__init__(seed)
        #: key -> (commit_ts, tid) of the latest observed writer.
        self._last_commit: dict[str, Tuple[int, int]] = {}

    def observe(self, txns: List[Transaction]) -> None:
        """Fold a (post-injection) batch into the last-writer map."""
        for txn in txns:
            for key in sorted(txn.write_keys):  # hash-seed independent
                seen = self._last_commit.get(key)
                if seen is None or txn.commit_ts > seen[0]:
                    self._last_commit[key] = (txn.commit_ts, txn.tid)

    def inject(self, kind: str, batch: List[Transaction]) -> Optional[FaultLabel]:
        """Apply one fault of ``kind`` (see :data:`CLASSES`) to ``batch``."""
        if kind not in self.CLASSES:
            raise ValueError(f"unknown live fault class {kind!r}")
        return getattr(self, f"inject_{kind}")(batch)

    def inject_ext(self, batch: List[Transaction]) -> Optional[FaultLabel]:
        """Corrupt one external read so no frontier can justify it."""
        return self._keep(_mutate_ext(self._rng, batch))

    def inject_int(self, batch: List[Transaction]) -> Optional[FaultLabel]:
        """Append an internal read contradicting the txn's own write."""
        return self._keep(_mutate_int(self._rng, batch))

    def inject_session(self, batch: List[Transaction]) -> Optional[FaultLabel]:
        """Swap sequence numbers of two same-session txns in the batch."""
        return self._keep(_mutate_session(self._rng, batch))

    def inject_noconflict(self, batch: List[Transaction]) -> Optional[FaultLabel]:
        """Overlap a batch writer with the key's previous writer."""
        options: List[Tuple[int, str, int, int]] = []
        for i, txn in enumerate(batch):
            if txn.tid == INIT_TID:
                continue
            for key in sorted(txn.write_keys):  # hash-seed independent
                seen = self._last_commit.get(key)
                if seen is None:
                    continue
                earlier_commit, earlier_tid = seen
                new_start = earlier_commit - 1
                if 0 < new_start < txn.commit_ts and earlier_commit < txn.commit_ts:
                    options.append((i, key, new_start, earlier_tid))
        if not options:
            return None
        index, key, new_start, earlier_tid = self._rng.choice(options)
        txn = batch[index]
        batch[index] = _replace(txn, start_ts=new_start)
        return self._keep(FaultLabel(Axiom.NOCONFLICT, (earlier_tid, txn.tid), key))

    def inject_ts_order(self, batch: List[Transaction]) -> Optional[FaultLabel]:
        """Swap one writer's start and commit timestamps (Eq. 1)."""
        return self._keep(_mutate_ts_order(self._rng, batch))


# The shared mutations: each picks its target with ``rng``, replaces the
# mutated transaction(s) in ``txns`` and returns the label, or returns
# None (and touches nothing) when ``txns`` offers no eligible target.


def _pick(
    rng: Random, txns: List[Transaction], eligible: Callable[[Transaction], Any]
) -> Optional[int]:
    """A seeded choice among the positions of eligible non-init txns."""
    candidates = [
        i for i, txn in enumerate(txns) if txn.tid != INIT_TID and eligible(txn)
    ]
    return rng.choice(candidates) if candidates else None


def _mutate_ext(rng: Random, txns: List[Transaction]) -> Optional[FaultLabel]:
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


def _mutate_int(rng: Random, txns: List[Transaction]) -> Optional[FaultLabel]:
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


def _mutate_session(rng: Random, txns: List[Transaction]) -> Optional[FaultLabel]:
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


def _mutate_ts_order(rng: Random, txns: List[Transaction]) -> Optional[FaultLabel]:
    index = _pick(rng, txns, lambda txn: txn.start_ts < txn.commit_ts)
    if index is None:
        return None
    txn = txns[index]
    txns[index] = _replace(txn, start_ts=txn.commit_ts, commit_ts=txn.start_ts)
    return FaultLabel(Axiom.TS_ORDER, (txn.tid,))


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
