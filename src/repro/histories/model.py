"""Core data model: operations, transactions, histories.

Definitions follow §II-B of the paper:

- a **transaction** is a pair ``(O, po)`` of operations and program order —
  here three program-ordered columns: one op-code byte, one key and one
  value per operation (:attr:`Transaction.ops` builds the
  :class:`Operation` tuple from them when read);
- a **history** is a pair ``(T, SO)`` of transactions and session order —
  here sessions are identified by ``sid`` and ordered by ``sno`` within a
  session;
- timestamps are the white-box extension (§III): every transaction carries
  ``start_ts`` and ``commit_ts`` obtained from the database's timestamp
  oracle, with ``start_ts <= commit_ts`` (Eq. 1; equality is allowed for
  read-only transactions).

Every history is expected to contain the special *initial transaction*
``⊥T`` (``tid == INIT_TID``) that writes the initial value of every key
and precedes all other transactions (§II-B).  :meth:`Transaction.initial`
builds it; :mod:`repro.histories.builder` and the database insert it.
"""

from __future__ import annotations

import enum
from itertools import compress
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

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


#: The op-code table: one byte per operation, in a :class:`Transaction`'s
#: ``codes``, a :class:`~repro.core.colpack.ColumnarBatch`'s ``op_kinds``
#: and every columnar pack (:mod:`repro.core.colpack` re-exports it).
OP_READ, OP_WRITE, OP_APPEND, OP_READ_LIST = 0, 1, 2, 3
_KIND_OF_CODE = (OpKind.READ, OpKind.WRITE, OpKind.APPEND, OpKind.READ_LIST)
_CODE_OF_KIND = {kind: code for code, kind in enumerate(_KIND_OF_CODE)}
#: The valid code bytes; ``bytes.translate`` deletes them to find the rest.
_OP_CODES = bytes(range(len(_KIND_OF_CODE)))
#: ``codes.translate(_WRITE_MASK)``: 1 where the op writes, 0 where it reads.
_WRITE_MASK = bytes(code in (OP_WRITE, OP_APPEND) for code in range(256))


class Transaction:
    """A committed transaction with white-box timestamps.

    Attributes mirror §III-B1 of the paper:

    - ``tid`` — unique transaction id;
    - ``sid`` — session id; ``sno`` — sequence number within the session;
    - ``codes`` / ``keys`` / ``values`` — the program-ordered operations
      as three columns: one op-code byte per op (``OP_READ`` …
      ``OP_READ_LIST``), a tuple of keys and a tuple of values (a
      read-list's value is a tuple);
    - ``start_ts`` / ``commit_ts`` — oracle timestamps.

    ``ops`` is a view: the :class:`Operation` tuple built from the columns
    each time it is read.  The constructor takes operations and splits
    them; :meth:`from_columns` takes columns a producer already holds (the
    database, the decoders, the fault injector) and builds no
    :class:`Operation`.  An eight-op transaction holds four small objects
    instead of ten.

    Derived views, computed by one pass over the columns each time they
    are read and never stored: the timestamp checkers walk the columns of
    a :class:`~repro.core.colpack.ColumnarBatch` and never read them, and
    a cache would bring the bytes back the first time a baseline or the
    fault injector touched a view.  A caller that reads a view inside a
    loop binds it once per transaction:

    - ``write_keys`` — frozenset of keys written (``T.wkey`` in the paper);
    - ``last_writes`` — final value written per key (``ext_val``), keys in
      the program order of their first write;
    - ``external_read_positions`` — first read per key *before any
      write/read of that key in the transaction*, i.e. the reads governed
      by EXT, each key mapped to the read's position in the columns;
    - ``is_read_only`` — no op writes.
    """

    __slots__ = ("tid", "sid", "sno", "codes", "keys", "values", "start_ts", "commit_ts")

    def __init__(
        self,
        tid: int,
        sid: int,
        sno: int,
        ops: Iterable[Operation],
        start_ts: int,
        commit_ts: int,
    ) -> None:
        ops = tuple(ops)
        self.tid = tid
        self.sid = sid
        self.sno = sno
        self.codes: bytes = bytes([_CODE_OF_KIND[op.kind] for op in ops])
        self.keys: Tuple[Key, ...] = tuple([op.key for op in ops])
        self.values: Tuple[Value, ...] = tuple([op.value for op in ops])
        self.start_ts = start_ts
        self.commit_ts = commit_ts

    @classmethod
    def from_columns(
        cls,
        tid: int,
        sid: int,
        sno: int,
        codes: bytes,
        keys: Tuple[Key, ...],
        values: Tuple[Value, ...],
        start_ts: int,
        commit_ts: int,
    ) -> "Transaction":
        """A transaction over columns the caller already holds, kept as
        they are: ``codes`` a ``bytes`` of op codes, ``keys`` and
        ``values`` tuples of the same length."""
        txn = cls.__new__(cls)
        txn.tid = tid
        txn.sid = sid
        txn.sno = sno
        txn.codes = codes
        txn.keys = keys
        txn.values = values
        txn.start_ts = start_ts
        txn.commit_ts = commit_ts
        return txn

    @classmethod
    def initial(cls, keys: Tuple[Key, ...], value: Value) -> "Transaction":
        """⊥T, one write of ``value`` to each of ``keys``: every producer's."""
        n = len(keys)
        return cls.from_columns(
            INIT_TID, INIT_SID, 0, bytes([OP_WRITE]) * n, keys, (value,) * n, INIT_TS, INIT_TS
        )

    @property
    def ops(self) -> Tuple[Operation, ...]:
        """The program-ordered :class:`Operation` tuple, built on read."""
        return tuple(
            map(Operation, map(_KIND_OF_CODE.__getitem__, self.codes), self.keys, self.values)
        )

    @property
    def write_keys(self) -> frozenset[Key]:
        return frozenset(compress(self.keys, self.codes.translate(_WRITE_MASK)))

    @property
    def last_writes(self) -> Dict[Key, Value]:
        return dict(compress(zip(self.keys, self.values), self.codes.translate(_WRITE_MASK)))

    @property
    def external_read_positions(self) -> Dict[Key, int]:
        positions: Dict[Key, int] = {}
        touched: set[Key] = set()
        codes = self.codes
        for position, key in enumerate(self.keys):
            if key not in touched:
                touched.add(key)
                code = codes[position]
                if code == OP_READ or code == OP_READ_LIST:
                    positions[key] = position
        return positions

    @property
    def is_read_only(self) -> bool:
        return OP_WRITE not in self.codes and OP_APPEND not in self.codes

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
            f"sts={self.start_ts}, cts={self.commit_ts}, ops={len(self.codes)})"
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
            keys.update(txn.keys)
        return keys

    def op_count(self) -> int:
        """Total number of operations (``M`` in the complexity analysis)."""
        return sum(len(txn.codes) for txn in self.transactions)

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
