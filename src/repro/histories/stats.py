"""Descriptive statistics of a history.

Used by the benchmark harness to confirm that generated workloads match
their Table I parameters (sessions, transactions, operations per
transaction, read ratio, key count) before timing anything.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.histories.model import History, INIT_TID, OP_APPEND, OP_READ, OP_READ_LIST, OP_WRITE

__all__ = ["HistoryStats"]


@dataclass(frozen=True)
class HistoryStats:
    """Aggregate counts over a history (initial transaction excluded)."""

    n_transactions: int
    n_sessions: int
    n_operations: int
    n_reads: int
    n_writes: int
    n_appends: int
    n_list_reads: int
    n_keys: int
    n_read_only: int

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
