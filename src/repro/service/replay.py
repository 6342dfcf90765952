"""Stream histories into a running daemon — the wire-side collector.

:func:`replay_transactions` is the producer half of the continuous
collector→checker loop: it takes committed transactions from any source
— a history file (a saved CDC capture is one), a canonical anomaly
fixture, or a freshly generated workload — and ships them to a
:class:`~repro.service.client.CheckerClient` in collector-sized batches.

Pacing reuses :meth:`repro.online.collector.HistoryCollector.iter_batches`
so an offered ``arrival_tps`` produces the same batch cadence the
simulated collector uses (500-txn batches at 25 000 TPS depart every
20 ms), but against the wall clock and a real socket.  Without a rate
the replay runs flat out, which is the wire-throughput measurement mode.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from repro.core.violations import CheckResult
from repro.histories.model import History, Transaction
from repro.online.collector import HistoryCollector
from repro.service.client import CheckerClient

__all__ = ["ReplayReport", "replay_transactions", "transactions_in_commit_order"]


@dataclass
class ReplayReport:
    """What one replay run observed end to end."""

    sent: int
    batches: int
    wall_seconds: float
    stats: Dict[str, Any] = field(default_factory=dict)
    result: Optional[CheckResult] = None

    @property
    def wire_tps(self) -> float:
        """End-to-end throughput: submitted → checked, per wall second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.sent / self.wall_seconds


def transactions_in_commit_order(source: Iterable[Transaction]) -> List[Transaction]:
    """Commit-order delivery, as a CDC/WAL tailer would produce it."""
    if isinstance(source, History):
        return source.by_commit_ts()
    return sorted(source, key=lambda txn: (txn.commit_ts, txn.tid))


def replay_transactions(
    client: CheckerClient,
    transactions: Iterable[Transaction],
    *,
    batch_size: int = 500,
    arrival_tps: Optional[float] = None,
    ack: bool = True,
    drain: bool = True,
    finalize: bool = False,
    collect_stats: bool = True,
) -> ReplayReport:
    """Stream ``transactions`` through an already-connected client.

    The transactions are sent exactly in the order given (callers wanting
    commit order apply :func:`transactions_in_commit_order` first — the
    order a session-order-preserving producer must not break).  With
    ``drain=True`` the wall time covers submission *and* checking: the
    report's :attr:`~ReplayReport.wire_tps` is true end-to-end
    throughput, not just socket bandwidth.
    """
    txns = list(transactions)
    collector = HistoryCollector(
        batch_size=batch_size,
        arrival_tps=arrival_tps if arrival_tps is not None else 25_000.0,
    )
    started = time.monotonic()
    batches = 0
    for depart, batch in collector.iter_batches(txns):
        if arrival_tps is not None:
            lag = (started + depart) - time.monotonic()
            if lag > 0:
                time.sleep(lag)
        client.submit_many(batch, ack=ack)
        batches += 1
    if drain:
        client.drain()
    wall = time.monotonic() - started
    report = ReplayReport(sent=len(txns), batches=batches, wall_seconds=wall)
    if collect_stats:
        # Cheap mode: skip the estimated_bytes deep-sizeof walk, which
        # runs on the daemon's event loop and stalls other producers on
        # a large resident set (nothing here prints it anyway).
        report.stats = client.stats(include_bytes=False)
    if finalize:
        report.result = client.finalize()
    return report
