"""Fluent construction of histories for tests, examples, and figures.

The paper's worked examples (Fig. 1, Fig. 2, Fig. 11) are small
hand-crafted histories with explicit timestamps.  :class:`HistoryBuilder`
makes those concise to express while enforcing the structural rules
(unique tids, unique cross-transaction timestamps, per-session ``sno``
sequencing, the initial transaction ⊥T).

>>> from repro.histories import HistoryBuilder, read, write
>>> b = HistoryBuilder(keys=["x", "y"])
>>> _ = b.txn(sid=1, start=1, commit=2, ops=[write("x", 1), write("y", 2)])
>>> _ = b.txn(sid=2, start=3, commit=3, ops=[read("x", 0)])
>>> history = b.build()
>>> len(history)          # includes the initial transaction
3
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.histories.model import (
    INIT_SID,
    INIT_TID,
    INIT_TS,
    History,
    Operation,
    Transaction,
)

__all__ = ["HistoryBuilder"]


class HistoryBuilder:
    """Accumulates transactions and produces a :class:`History`.

    Parameters
    ----------
    keys:
        Key universe written by the initial transaction ⊥T.  When omitted,
        ⊥T writes every key mentioned by any added transaction.
    initial_value:
        The value ⊥T writes to every key (0 by default, matching the
        generators).
    with_init:
        Set to False to build a history without ⊥T (used by tests that
        exercise missing-initial-transaction handling).
    """

    def __init__(
        self,
        keys: Optional[Iterable[str]] = None,
        *,
        initial_value: Any = 0,
        with_init: bool = True,
    ) -> None:
        self._declared_keys = list(keys) if keys is not None else None
        self._initial_value = initial_value
        self._with_init = with_init
        self._txns: List[Transaction] = []
        self._next_tid = INIT_TID + 1
        self._next_ts = INIT_TS + 1
        self._session_snos: Dict[int, int] = {}
        self._used_tids: set[int] = set()
        self._used_ts: set[int] = set()

    # ------------------------------------------------------------------
    # Adding transactions
    # ------------------------------------------------------------------

    def txn(
        self,
        *,
        ops: Sequence[Operation],
        sid: int = 1,
        start: Optional[int] = None,
        commit: Optional[int] = None,
        tid: Optional[int] = None,
        sno: Optional[int] = None,
    ) -> Transaction:
        """Add a transaction and return it.

        Timestamps and ids default to fresh monotonically increasing
        values; pass them explicitly to reproduce a paper figure.  The
        builder rejects duplicate tids and duplicate cross-transaction
        timestamps (equal ``start``/``commit`` within one read-only
        transaction is allowed, per Eq. 1).
        """
        if sid == INIT_SID:
            raise ValueError(f"session id {INIT_SID} is reserved for the initial transaction")
        if tid is None:
            tid = self._next_tid
        if tid in self._used_tids or tid == INIT_TID:
            raise ValueError(f"duplicate or reserved tid {tid}")
        self._next_tid = max(self._next_tid, tid + 1)

        if start is None:
            start = self._fresh_ts()
        if commit is None:
            commit = self._fresh_ts() if any(op.is_write for op in ops) else start
        for ts in {start, commit}:
            if ts in self._used_ts or ts == INIT_TS:
                raise ValueError(f"timestamp {ts} already used by another transaction")
        self._used_ts.update({start, commit})
        self._next_ts = max(self._next_ts, start + 1, commit + 1)

        if sno is None:
            sno = self._session_snos.get(sid, -1) + 1
        self._session_snos[sid] = sno

        txn = Transaction(tid=tid, sid=sid, sno=sno, ops=ops, start_ts=start, commit_ts=commit)
        self._txns.append(txn)
        self._used_tids.add(tid)
        return txn

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------

    def build(self) -> History:
        """Produce the history, prepending ⊥T when configured."""
        txns: List[Transaction] = []
        if self._with_init:
            keys = self._declared_keys
            if keys is None:
                # Every key once, in the order of its first operation.
                keys = list(dict.fromkeys(chain.from_iterable(txn.keys for txn in self._txns)))
            txns.append(Transaction.initial(tuple(keys), self._initial_value))
        txns.extend(self._txns)
        return History(txns)

    def _fresh_ts(self) -> int:
        ts = self._next_ts
        while ts in self._used_ts:
            ts += 1
        self._next_ts = ts + 1
        return ts
