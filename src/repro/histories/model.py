"""Core data model: operations, transactions, histories.

Definitions follow §II-B of the paper:

- a **transaction** is a pair ``(O, po)`` of operations and program order —
  here an ordered tuple of :class:`Operation`;
- a **history** is a pair ``(T, SO)`` of transactions and session order —
  here sessions are identified by ``sid`` and ordered by ``sno`` within a
  session;
- timestamps are the white-box extension (§III): every transaction carries
  ``start_ts`` and ``commit_ts`` obtained from the database's timestamp
  oracle, with ``start_ts <= commit_ts`` (Eq. 1; equality is allowed for
  read-only transactions).

Every history is expected to contain the special *initial transaction*
``⊥T`` (``tid == INIT_TID``) that writes the initial value of every key
and precedes all other transactions (§II-B).  Helper constructors in
:mod:`repro.histories.builder` and the workload generators insert it
automatically.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "INIT_TID",
    "INIT_SID",
    "INIT_TS",
    "BOTTOM",
    "OpKind",
    "Operation",
    "Transaction",
    "History",
]


class _Bottom:
    """Singleton for the unreadable initial value ⊥v.

    §II: "we assume an artificial value ⊥v ∉ V" — the value every key
    holds before the initial transaction writes it.  Defined here at the
    data-model layer so both the checkers (:mod:`repro.core.common`
    re-exports it) and the serialization codecs can reference it without
    a layering cycle.
    """

    __slots__ = ()
    _instance: Optional["_Bottom"] = None

    def __new__(cls) -> "_Bottom":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "⊥"


BOTTOM = _Bottom()

#: Transaction id reserved for the initial transaction ⊥T.
INIT_TID = 0
#: Session id reserved for the initial transaction's singleton session.
INIT_SID = 0
#: Timestamp of the initial transaction (start == commit == INIT_TS).
INIT_TS = 0

Key = str
Value = Any


class OpKind(enum.Enum):
    """The kinds of client-visible operations.

    ``READ``/``WRITE`` act on register (key-value) data; ``APPEND`` and
    ``READ_LIST`` act on list data (§IV-B: comma-separated TEXT columns in
    TiDB/YugabyteDB, implemented here natively by the storage engine).
    """

    READ = "r"
    WRITE = "w"
    APPEND = "a"
    READ_LIST = "rl"


class Operation:
    """One operation of a transaction.

    ``value`` holds the written value for :attr:`OpKind.WRITE` and
    :attr:`OpKind.APPEND`, the value *returned* for :attr:`OpKind.READ`,
    and the full tuple of elements returned for :attr:`OpKind.READ_LIST`.
    """

    __slots__ = ("kind", "key", "value")

    def __init__(self, kind: OpKind, key: Key, value: Value) -> None:
        if kind is OpKind.READ_LIST and not isinstance(value, tuple):
            value = tuple(value)
        self.kind = kind
        self.key = key
        self.value = value

    @property
    def is_read(self) -> bool:
        return self.kind in (OpKind.READ, OpKind.READ_LIST)

    @property
    def is_write(self) -> bool:
        return self.kind in (OpKind.WRITE, OpKind.APPEND)

    def __eq__(self, other: Any) -> bool:
        return (
            isinstance(other, Operation)
            and self.kind is other.kind
            and self.key == other.key
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.key, self.value))

    def __repr__(self) -> str:
        if self.kind is OpKind.READ:
            return f"R({self.key}, {self.value!r})"
        if self.kind is OpKind.WRITE:
            return f"W({self.key}, {self.value!r})"
        if self.kind is OpKind.APPEND:
            return f"A({self.key}, {self.value!r})"
        return f"RL({self.key}, {self.value!r})"


#: The kinds that write; a tuple, so ``in`` is an identity test.
_WRITES = (OpKind.WRITE, OpKind.APPEND)


class Transaction:
    """A committed transaction with white-box timestamps.

    Attributes mirror §III-B1 of the paper:

    - ``tid`` — unique transaction id;
    - ``sid`` — session id; ``sno`` — sequence number within the session;
    - ``ops`` — program-ordered operations;
    - ``start_ts`` / ``commit_ts`` — oracle timestamps.

    Derived views, computed by one pass over ``ops`` each time they are
    read and never stored: the timestamp checkers walk the columns of a
    :class:`~repro.core.colpack.ColumnarBatch` and never read them, and
    a cache would bring the bytes back the first time a baseline or the
    fault injector touched a view.  A caller that reads a view inside a
    loop binds it once per transaction:

    - ``write_keys`` — frozenset of keys written (``T.wkey`` in the paper);
    - ``last_writes`` — final value written per key (``ext_val``), keys in
      the program order of their first write;
    - ``external_reads`` — first read per key *before any write/read of
      that key in the transaction*, i.e. the reads governed by EXT;
    - ``is_read_only`` — no op writes.
    """

    __slots__ = ("tid", "sid", "sno", "ops", "start_ts", "commit_ts")

    def __init__(
        self,
        tid: int,
        sid: int,
        sno: int,
        ops: Sequence[Operation],
        start_ts: int,
        commit_ts: int,
    ) -> None:
        self.tid = tid
        self.sid = sid
        self.sno = sno
        self.ops: Tuple[Operation, ...] = tuple(ops)
        self.start_ts = start_ts
        self.commit_ts = commit_ts

    @property
    def write_keys(self) -> frozenset[Key]:
        return frozenset([op.key for op in self.ops if op.kind in _WRITES])

    @property
    def last_writes(self) -> Dict[Key, Value]:
        return {op.key: op.value for op in self.ops if op.kind in _WRITES}

    @property
    def external_reads(self) -> Dict[Key, Operation]:
        reads: Dict[Key, Operation] = {}
        touched: set[Key] = set()
        for op in self.ops:
            if op.key not in touched:
                touched.add(op.key)
                if op.kind not in _WRITES:
                    reads[op.key] = op
        return reads

    @property
    def is_read_only(self) -> bool:
        return not any(op.kind in _WRITES for op in self.ops)

    @property
    def interval(self) -> Tuple[int, int]:
        """The transaction's lifetime ``[start_ts, commit_ts]``."""
        return (self.start_ts, self.commit_ts)

    def overlaps(self, other: "Transaction") -> bool:
        """True when the two lifetimes intersect (concurrency test)."""
        return self.start_ts <= other.commit_ts and other.start_ts <= self.commit_ts

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, Transaction) and self.tid == other.tid

    def __hash__(self) -> int:
        return hash(self.tid)

    def __repr__(self) -> str:
        return (
            f"Txn(tid={self.tid}, sid={self.sid}, sno={self.sno}, "
            f"sts={self.start_ts}, cts={self.commit_ts}, ops={len(self.ops)})"
        )


class History:
    """A set of committed transactions plus the session order.

    The transaction list is stored in arrival order (for online replay);
    :meth:`by_commit_ts` provides the commit-ordered view.  Only
    *committed* transactions are recorded, following the paper (§IV-B)
    and prior work.
    """

    __slots__ = ("transactions", "_by_tid", "_sessions")

    def __init__(self, transactions: Iterable[Transaction]) -> None:
        self.transactions: List[Transaction] = list(transactions)
        self._by_tid: Dict[int, Transaction] = {}
        self._sessions: Optional[Dict[int, List[Transaction]]] = None
        for txn in self.transactions:
            if txn.tid in self._by_tid:
                raise ValueError(f"duplicate transaction id {txn.tid}")
            self._by_tid[txn.tid] = txn

    def __len__(self) -> int:
        return len(self.transactions)

    def __iter__(self) -> Iterator[Transaction]:
        return iter(self.transactions)

    def __contains__(self, tid: int) -> bool:
        return tid in self._by_tid

    def get(self, tid: int) -> Transaction:
        """Return the transaction with id ``tid``; KeyError if absent."""
        return self._by_tid[tid]

    @property
    def sessions(self) -> Mapping[int, List[Transaction]]:
        """Transactions grouped by session, ordered by ``sno``."""
        if self._sessions is None:
            grouped: Dict[int, List[Transaction]] = {}
            for txn in self.transactions:
                grouped.setdefault(txn.sid, []).append(txn)
            for txns in grouped.values():
                txns.sort(key=lambda t: t.sno)
            self._sessions = grouped
        return self._sessions

    @property
    def init_transaction(self) -> Optional[Transaction]:
        """The initial transaction ⊥T, when present."""
        return self._by_tid.get(INIT_TID)

    def keys(self) -> set[Key]:
        """All keys touched by any operation in the history."""
        keys: set[Key] = set()
        for txn in self.transactions:
            for op in txn.ops:
                keys.add(op.key)
        return keys

    def op_count(self) -> int:
        """Total number of operations (``M`` in the complexity analysis)."""
        return sum(len(txn.ops) for txn in self.transactions)

    def by_commit_ts(self) -> List[Transaction]:
        """Transactions sorted by commit timestamp (the AR order, Def. 5)."""
        return sorted(self.transactions, key=lambda t: (t.commit_ts, t.tid))

    def subset(self, n: int) -> "History":
        """A prefix of the first ``n`` transactions in arrival order."""
        return History(self.transactions[:n])

    def without_init(self) -> List[Transaction]:
        """All transactions except ⊥T, in arrival order."""
        return [t for t in self.transactions if t.tid != INIT_TID]

    def __repr__(self) -> str:
        return f"History({len(self.transactions)} txns, {self.op_count()} ops)"
