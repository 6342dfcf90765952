"""Descriptive statistics of a history.

Used by the benchmark harness to confirm that generated workloads match
their Table I parameters (sessions, transactions, operations per
transaction, read ratio, key count) before timing anything.

:class:`HistoryStats` is a plain frozen ``__slots__`` record, so
``repro stats <file>`` loads neither ``dataclasses`` nor ``inspect``.
"""

from __future__ import annotations

from typing import Tuple

from repro.histories.model import History, INIT_TID, OP_APPEND, OP_READ, OP_READ_LIST, OP_WRITE

__all__ = ["HistoryStats"]


class HistoryStats:
    """Aggregate counts over a history (initial transaction excluded; frozen)."""

    __slots__ = (
        "n_transactions",
        "n_sessions",
        "n_operations",
        "n_reads",
        "n_writes",
        "n_appends",
        "n_list_reads",
        "n_keys",
        "n_read_only",
    )

    def __init__(
        self,
        n_transactions: int,
        n_sessions: int,
        n_operations: int,
        n_reads: int,
        n_writes: int,
        n_appends: int,
        n_list_reads: int,
        n_keys: int,
        n_read_only: int,
    ) -> None:
        _set = object.__setattr__
        _set(self, "n_transactions", n_transactions)
        _set(self, "n_sessions", n_sessions)
        _set(self, "n_operations", n_operations)
        _set(self, "n_reads", n_reads)
        _set(self, "n_writes", n_writes)
        _set(self, "n_appends", n_appends)
        _set(self, "n_list_reads", n_list_reads)
        _set(self, "n_keys", n_keys)
        _set(self, "n_read_only", n_read_only)

    def _values(self) -> Tuple[int, ...]:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"HistoryStats({fields})"

    def __reduce__(self) -> Tuple[type, Tuple[int, ...]]:
        return type(self), self._values()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a frozen record")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a frozen record")

    @classmethod
    def of(cls, history: History) -> "HistoryStats":
        """Compute statistics for ``history``, ignoring ⊥T."""
        n_txn = 0
        sessions: set[int] = set()
        n_ops = n_reads = n_writes = n_appends = n_list_reads = n_read_only = 0
        keys: set[str] = set()
        for txn in history:
            if txn.tid == INIT_TID:
                continue
            n_txn += 1
            sessions.add(txn.sid)
            if txn.is_read_only:
                n_read_only += 1
            codes = txn.codes
            n_ops += len(codes)
            keys.update(txn.keys)
            n_reads += codes.count(OP_READ)
            n_writes += codes.count(OP_WRITE)
            n_appends += codes.count(OP_APPEND)
            n_list_reads += codes.count(OP_READ_LIST)
        return cls(
            n_transactions=n_txn,
            n_sessions=len(sessions),
            n_operations=n_ops,
            n_reads=n_reads,
            n_writes=n_writes,
            n_appends=n_appends,
            n_list_reads=n_list_reads,
            n_keys=len(keys),
            n_read_only=n_read_only,
        )

    @property
    def ops_per_txn(self) -> float:
        """Mean operations per transaction (0.0 for an empty history)."""
        if self.n_transactions == 0:
            return 0.0
        return self.n_operations / self.n_transactions

    @property
    def read_ratio(self) -> float:
        """Fraction of operations that are reads (register or list)."""
        if self.n_operations == 0:
            return 0.0
        return (self.n_reads + self.n_list_reads) / self.n_operations
