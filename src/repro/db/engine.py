"""The transactional engine: operational semantics of SI (Algorithm 1).

The engine executes client transactions exactly as the paper's high-level
SI implementation does:

- ``begin``   — request a start timestamp from the oracle (line 1:2);
- ``write``   — buffer the write (line 1:5);
- ``read``    — serve from the write buffer, else from the committed
  snapshot as of ``start_ts`` (line 1:8);
- ``commit``  — request a commit timestamp (line 1:10), abort if a
  concurrent transaction already committed a write to any key in the
  write set (first-committer-wins, line 1:11), else install the buffered
  writes (line 1:13).

In ``IsolationLevel.SER`` mode the engine additionally validates the read
set at commit: if any key read from the snapshot has a newer committed
version inside the transaction's lifetime the transaction aborts.  Reads
are then effectively as-of-commit, writes are atomic at commit, so every
committed execution is equivalent to the serial commit-timestamp order —
which is precisely what Chronos-SER/Aion-SER verify.

Transactions run interleaved (the workload driver advances sessions one
operation at a time), so lifetimes genuinely overlap and first-committer-
wins aborts actually occur.  Only committed transactions reach the CDC
log (§IV-B: "we consider only committed transactions for verification").
"""

from __future__ import annotations

import enum
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.db.cdc import ChangeLog
from repro.db.oracle import CentralizedOracle, TimestampOracle
from repro.db.storage import MultiVersionStore
from repro.histories.model import (
    INIT_SID,
    INIT_TID,
    INIT_TS,
    OP_APPEND,
    OP_READ,
    OP_READ_LIST,
    OP_WRITE,
    Transaction,
)

__all__ = ["Database", "IsolationLevel", "Session", "TxnHandle", "TransactionAborted"]


class IsolationLevel(enum.Enum):
    """The isolation level the engine enforces."""

    SI = "si"
    SER = "ser"


class TransactionAborted(Exception):
    """Raised at commit when conflict detection rejects the transaction."""

    def __init__(self, tid: int, reason: str) -> None:
        super().__init__(f"transaction {tid} aborted: {reason}")
        self.tid = tid
        self.reason = reason


class TxnHandle:
    """An in-flight transaction (client side of Algorithm 1).

    Its operations are recorded as the committed :class:`Transaction`
    keeps them: an op-code column, a key column and a value column.
    """

    __slots__ = (
        "tid",
        "sid",
        "node",
        "start_ts",
        "buffer",
        "op_codes",
        "op_keys",
        "op_values",
        "read_keys",
        "write_keys",
        "active",
    )

    def __init__(self, tid: int, sid: int, node: int, start_ts: int) -> None:
        self.tid = tid
        self.sid = sid
        self.node = node
        self.start_ts = start_ts
        self.buffer: Dict[str, Any] = {}
        self.op_codes = bytearray()
        self.op_keys: List[str] = []
        self.op_values: List[Any] = []
        self.read_keys: Set[str] = set()
        self.write_keys: Set[str] = set()
        self.active = True

    def record_op(self, code: int, key: str, value: Any) -> None:
        """Append one client-visible operation to the op columns."""
        self.op_codes.append(code)
        self.op_keys.append(key)
        self.op_values.append(value)


class Session:
    """A client session; transactions of a session never overlap.

    Sessions are pinned to a node (relevant under the decentralized
    oracle) and assign sequence numbers to *committed* transactions only,
    so the recorded history has contiguous ``sno`` per session.
    """

    def __init__(self, database: "Database", sid: int, node: int) -> None:
        self._database = database
        self.sid = sid
        self.node = node
        self.next_sno = 0
        self.committed = 0
        self.aborted = 0

    def begin(self) -> TxnHandle:
        return self._database.begin(self)

    def __repr__(self) -> str:
        return f"Session(sid={self.sid}, node={self.node}, committed={self.committed})"


class Database:
    """A single-process simulated MVCC database.

    Parameters
    ----------
    oracle:
        Timestamp oracle; defaults to a fresh :class:`CentralizedOracle`.
    isolation:
        ``SI`` (Algorithm 1) or ``SER`` (adds read-set validation).
    collect_history:
        When False the CDC log is not populated — the configuration used
        to measure the history-collection overhead of Fig 15.
    """

    def __init__(
        self,
        oracle: Optional[TimestampOracle] = None,
        *,
        isolation: IsolationLevel = IsolationLevel.SI,
        collect_history: bool = True,
    ) -> None:
        self.oracle: TimestampOracle = oracle if oracle is not None else CentralizedOracle()
        self.isolation = isolation
        self.collect_history = collect_history
        self.store = MultiVersionStore()
        self.cdc = ChangeLog()
        # One object per distinct key: an op's key is swapped for the
        # first object seen equal to it, so every recorded operation, the
        # store's chains and the log share one ``str`` per key.
        self._keys: Dict[str, str] = {}
        # One ``bytes`` per distinct op-code pattern, by the same rule: a
        # workload of a few hundred transaction shapes records that many
        # code columns, not one per transaction.
        self._codes: Dict[bytes, bytes] = {}
        self._next_tid = INIT_TID + 1
        self._next_sid = INIT_SID + 1
        self.n_commits = 0
        self.n_aborts = 0

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def initialize(self, keys: Any, value: Any = 0) -> None:
        """Install the initial transaction ⊥T writing ``value`` to ``keys``.

        ⊥T owns tid/sid/timestamp 0 and precedes everything (§II-B).
        """
        written = tuple([self._keys.setdefault(key, key) for key in keys])
        for key in written:
            self.store.install(key, INIT_TS, value)
        if self.collect_history:
            self.cdc.emit(Transaction.initial(written, value))

    def session(self, node: Optional[int] = None) -> Session:
        """Open a new client session, optionally pinned to a node."""
        sid = self._next_sid
        self._next_sid += 1
        n_nodes = getattr(self.oracle, "n_nodes", 1)
        return Session(self, sid, node if node is not None else sid % n_nodes)

    # ------------------------------------------------------------------
    # Transaction lifecycle (Algorithm 1)
    # ------------------------------------------------------------------

    def begin(self, session: Session) -> TxnHandle:
        tid = self._next_tid
        self._next_tid += 1
        start_ts = self.oracle.next_ts(session.node)
        return TxnHandle(tid, session.sid, session.node, start_ts)

    def read(self, txn: TxnHandle, key: str) -> Any:
        """Read a register key (buffer first, else snapshot)."""
        self._require_active(txn)
        key = self._keys.setdefault(key, key)
        if key in txn.buffer:
            value = txn.buffer[key]
        else:
            version = self.store.read_at(key, txn.start_ts)
            value = version[1] if version is not None else None
            txn.read_keys.add(key)
        txn.record_op(OP_READ, key, value)
        return value

    def write(self, txn: TxnHandle, key: str, value: Any) -> None:
        """Buffer a register write."""
        self._require_active(txn)
        key = self._keys.setdefault(key, key)
        txn.buffer[key] = value
        txn.write_keys.add(key)
        txn.record_op(OP_WRITE, key, value)

    def append(self, txn: TxnHandle, key: str, element: Any) -> None:
        """Append to a list key (read-modify-write on the snapshot)."""
        self._require_active(txn)
        key = self._keys.setdefault(key, key)
        if key in txn.buffer:
            base = txn.buffer[key]
        else:
            version = self.store.read_at(key, txn.start_ts)
            base = version[1] if version is not None else ()
        if not isinstance(base, tuple):
            base = (base,)
        txn.buffer[key] = base + (element,)
        txn.write_keys.add(key)
        txn.record_op(OP_APPEND, key, element)

    def read_list(self, txn: TxnHandle, key: str) -> Tuple[Any, ...]:
        """Read a list key in full."""
        self._require_active(txn)
        key = self._keys.setdefault(key, key)
        if key in txn.buffer:
            value = txn.buffer[key]
        else:
            version = self.store.read_at(key, txn.start_ts)
            value = version[1] if version is not None else ()
            txn.read_keys.add(key)
        if not isinstance(value, tuple):
            value = (value,)
        txn.record_op(OP_READ_LIST, key, value)
        return value

    def commit(self, txn: TxnHandle, session: Session) -> int:
        """Attempt to commit; returns the commit timestamp.

        Raises :class:`TransactionAborted` when first-committer-wins (or,
        in SER mode, read validation) rejects the transaction.
        """
        self._require_active(txn)
        txn.active = False

        if not txn.write_keys:
            # Read-only: no conflict possible; commit at the snapshot
            # (Eq. 1 allows commit_ts == start_ts).
            commit_ts = txn.start_ts
            self._record(txn, session, commit_ts)
            return commit_ts

        commit_ts = self.oracle.next_ts(session.node)
        for key in txn.write_keys:
            lo, hi = sorted((txn.start_ts, commit_ts))
            if self.store.versions_in(key, lo, hi):
                self.n_aborts += 1
                session.aborted += 1
                raise TransactionAborted(txn.tid, f"write-write conflict on {key!r}")
        if self.isolation is IsolationLevel.SER:
            for key in txn.read_keys:
                lo, hi = sorted((txn.start_ts, commit_ts))
                if self.store.versions_in(key, lo, hi):
                    self.n_aborts += 1
                    session.aborted += 1
                    raise TransactionAborted(txn.tid, f"read validation failed on {key!r}")

        for key, value in txn.buffer.items():
            self.store.install(key, commit_ts, value)
        self._record(txn, session, commit_ts)
        return commit_ts

    def abort(self, txn: TxnHandle, session: Session) -> None:
        """Client-initiated abort; the transaction leaves no trace."""
        if txn.active:
            txn.active = False
            self.n_aborts += 1
            session.aborted += 1

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _record(self, txn: TxnHandle, session: Session, commit_ts: int) -> None:
        self.n_commits += 1
        session.committed += 1
        sno = session.next_sno
        session.next_sno += 1
        if self.collect_history:
            codes = bytes(txn.op_codes)
            self.cdc.emit(
                Transaction.from_columns(
                    txn.tid,
                    txn.sid,
                    sno,
                    self._codes.setdefault(codes, codes),
                    tuple(txn.op_keys),
                    tuple(txn.op_values),
                    txn.start_ts,
                    commit_ts,
                )
            )

    @staticmethod
    def _require_active(txn: TxnHandle) -> None:
        if not txn.active:
            raise RuntimeError(f"transaction {txn.tid} is no longer active")
