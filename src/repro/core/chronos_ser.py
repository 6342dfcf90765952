"""Chronos-SER — the offline timestamp-based serializability checker.

Serializability with timestamp-based arbitration (Definition 5) asks
whether the history is equivalent to executing the transactions *one at a
time in commit-timestamp order*.  Following §VI-A: start timestamps can be
ignored and the NOCONFLICT axiom is not needed — the checker simulates the
serial execution directly:

- transactions are visited in ascending ``commit_ts``;
- every external read must return the running frontier value (the last
  committed write in the serial order);
- INT is checked exactly as in Chronos;
- SESSION requires each session's commit timestamps to respect its
  sequence numbers.

The same simulation handles list histories (appends resolve against the
serial frontier).  Complexity is ``O(N log N + M)``.

Like :class:`~repro.core.chronos.Chronos`, the walk runs over a
:class:`~repro.core.colpack.ColumnarBatch` — the transaction indices
sorted by ``(commit_ts, tid)`` (:func:`~repro.core.common.timestamp_order`,
one packed ``int`` per index, no tuple), then one
:func:`repro.core.common.simulate` call per transaction with the commit
timestamp as its snapshot — and a :class:`History` or a transaction list
is flattened onto the same walk.
"""

from __future__ import annotations

import time
from typing import Dict, Sequence, Union

from repro.core.chronos import ChronosReport
from repro.core.batch import ColumnarBatch
from repro.core.common import SessionTracker, simulate, timestamp_order
from repro.core.violations import Axiom, CheckResult, TimestampOrderViolation
from repro.histories.model import History, Transaction

__all__ = ["ChronosSer"]


class ChronosSer:
    """Offline SER checker over key-value and list histories."""

    def __init__(self) -> None:
        self.report = ChronosReport()
        self.frontier: Dict[str, object] = {}

    def check(self, history: Union[History, ColumnarBatch]) -> CheckResult:
        """Check an entire history for SER; returns all violations found."""
        if isinstance(history, ColumnarBatch):
            return self._walk(history)
        return self.check_transactions(history.transactions)

    def check_transactions(self, transactions: Sequence[Transaction]) -> CheckResult:
        return self._walk(ColumnarBatch.from_transactions(transactions))

    def _walk(self, batch: ColumnarBatch) -> CheckResult:
        result = CheckResult()
        report_violation = result.violations.append
        report = self.report = ChronosReport(
            n_transactions=len(batch), n_operations=len(batch.op_kinds)
        )

        t0 = time.perf_counter()
        tids = batch.tids
        commits = batch.commits
        order = timestamp_order(commits, tids)
        report.sort_seconds = time.perf_counter() - t0

        t0 = time.perf_counter()
        frontier = self.frontier
        starts = batch.starts
        sessions = SessionTracker()
        for index in order:
            tid = tids[index]
            commit_ts = commits[index]
            if starts[index] > commit_ts:
                # Eq. 1 still reported for diagnostic value, though SER
                # checking itself does not use start timestamps.
                report_violation(
                    TimestampOrderViolation(
                        axiom=Axiom.TS_ORDER, tid=tid, start_ts=starts[index], commit_ts=commit_ts
                    )
                )
            frontier.update(
                simulate(
                    batch, index, tid, commit_ts, sessions, frontier, report_violation,
                    report_violation,
                )
            )
        report.check_seconds = time.perf_counter() - t0
        return result
