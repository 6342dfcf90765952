"""Shared pieces of the timestamp-based checkers.

- :data:`BOTTOM` — the artificial value ``⊥v`` that no client can read
  (§II: "we assume an artificial value ⊥v ∉ V").
- :class:`SessionTracker` — the ``last_sno`` / ``last_cts`` bookkeeping of
  the SESSION axiom, shared by all four checkers.
- :func:`simulate` — one transaction of a
  :class:`~repro.core.colpack.ColumnarBatch` replayed against a committed
  frontier: the SESSION rule, then one program-order pass over the
  transaction's slice of the flat op columns applying the INT / EXT rules
  for register (key-value) and list data.  It returns the *resolved*
  final writes (for appends, the full list value as of the transaction's
  snapshot), which is what the frontier must be advanced with.  This is
  the only place the offline checkers interpret an operation:
  :class:`~repro.core.chronos.Chronos` calls it at each start event,
  :class:`~repro.core.chronos_ser.ChronosSer` once per transaction in
  commit order.  It reads columns, not :class:`Operation` objects — a
  history decoded from disk is checked without building any.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.core.colpack import OP_READ, OP_READ_LIST, OP_WRITE, ColumnarBatch
from repro.core.violations import Axiom, ExtViolation, IntViolation, SessionViolation, Violation
from repro.histories.model import BOTTOM

__all__ = ["BOTTOM", "SessionTracker", "simulate"]

#: Timestamp smaller than every real timestamp (``⊥ts`` in Algorithm 2).
BOTTOM_TS = -1


class SessionTracker:
    """Tracks per-session progress for the SESSION axiom.

    A transaction must carry the next sequence number of its session and
    must take its snapshot no earlier than its predecessor committed.
    ``snapshot_ts`` is the transaction's start timestamp under SI
    (Algorithm 2 line 7); the SER checkers ignore start timestamps (§VI-A)
    and pass the commit timestamp, which requires the session's commits
    to be increasing, i.e. the serial commit order respects session order.
    """

    __slots__ = ("_last_sno", "_last_cts")

    def __init__(self) -> None:
        self._last_sno: Dict[int, int] = {}
        self._last_cts: Dict[int, int] = {}

    def observe(
        self, tid: int, sid: int, sno: int, snapshot_ts: int, commit_ts: int
    ) -> Optional[SessionViolation]:
        """Record a transaction as its session's latest; return a violation if any."""
        expected_sno = self._last_sno.get(sid, -1) + 1
        last_cts = self._last_cts.get(sid, BOTTOM_TS)
        self._last_sno[sid] = sno
        self._last_cts[sid] = commit_ts
        if sno != expected_sno or snapshot_ts < last_cts:
            return SessionViolation(
                axiom=Axiom.SESSION,
                tid=tid,
                sid=sid,
                expected_sno=expected_sno,
                actual_sno=sno,
                start_ts=snapshot_ts,
                last_commit_ts=last_cts,
            )
        return None


def simulate(
    batch: ColumnarBatch,
    index: int,
    snapshot_ts: int,
    sessions: SessionTracker,
    frontier: Dict[str, Any],
    report: Callable[[Violation], None],
    report_int: Callable[[Violation], None],
) -> Dict[str, Any]:
    """Replay transaction ``index`` of ``batch`` against its snapshot.

    ``frontier`` must hold the committed value of every key as of
    ``snapshot_ts`` (a never-written key is absent, i.e. ⊥v).  SESSION and
    EXT violations go to ``report``, INT violations to ``report_int`` —
    Chronos lists a transaction's EXT reports before its INT reports,
    Chronos-SER passes one sink for both and gets program order.  Checking
    continues past mismatches, per the paper's report-and-continue policy.

    Returns the resolved final write per key — for plain writes the last
    written value, for appends the full list value built on top of the
    snapshot.  This is the value the committed frontier advances to.
    """
    tid = batch.tids[index]
    violation = sessions.observe(
        tid, batch.sids[index], batch.snos[index], snapshot_ts, batch.commits[index]
    )
    if violation is not None:
        report(violation)
    kinds = batch.op_kinds
    keys = batch.op_keys
    values = batch.op_values
    local: Dict[str, Any] = {}
    resolved: Dict[str, Any] = {}
    for op in range(batch.op_offsets[index], batch.op_offsets[index + 1]):
        kind = kinds[op]
        key = keys[op]
        value = values[op]
        if kind == OP_READ or kind == OP_READ_LIST:
            if key in local:
                if local[key] != value:
                    report_int(
                        IntViolation(
                            axiom=Axiom.INT, tid=tid, key=key, expected=local[key], actual=value
                        )
                    )
            else:
                # Clients cannot observe ⊥v: a read of a never-written
                # register surfaces as None (an absent row), an unborn
                # list reads empty.
                expected = frontier.get(key, BOTTOM)
                if expected is BOTTOM and kind == OP_READ_LIST:
                    expected = ()
                if (value is not None) if expected is BOTTOM else (expected != value):
                    report(
                        ExtViolation(
                            axiom=Axiom.EXT, tid=tid, key=key, expected=expected, actual=value
                        )
                    )
            local[key] = value
        elif kind == OP_WRITE:
            local[key] = resolved[key] = value
        else:  # OP_APPEND
            if key in local:
                base = local[key]
            else:
                base = frontier.get(key, BOTTOM)
                if base is BOTTOM:
                    base = ()
            if not isinstance(base, tuple):
                base = (base,)
            local[key] = resolved[key] = base + (value,)
    return resolved
