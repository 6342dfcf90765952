"""Open-loop pacing: send on a schedule regardless of progress.

Batch *i* is due at ``t0 + i * batch_size / rate``.  The sender sleeps
until a batch is due and never waits for the system under test, so a
stall shows up as lag on every later batch instead of as a slower
generator.  Clock and sleep are parameters so the accounting can be
tested against a fake clock.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Sequence


@dataclass(frozen=True)
class Send:
    """One paced send: when it was due and when the call started."""

    index: int
    due: float
    started: float

    @property
    def late(self) -> float:
        """How far behind schedule the generator itself ran."""
        return self.started - self.due


def due_times(n_batches: int, batch_size: int, rate_tps: float, t0: float) -> List[float]:
    interval = batch_size / rate_tps
    return [t0 + i * interval for i in range(n_batches)]


def run_paced(
    batches: Sequence[object],
    batch_size: int,
    rate_tps: float,
    send: Callable[[object], None],
    *,
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
) -> List[Send]:
    """Send every batch at its due time; returns the send log.

    A generator that falls behind does not skip or bunch batches to
    catch up beyond sending immediately: each batch goes out at
    ``max(due, now)`` and its lateness is recorded.
    """
    sends: List[Send] = []
    dues = due_times(len(batches), batch_size, rate_tps, clock())
    for index, (due, batch) in enumerate(zip(dues, batches)):
        now = clock()
        if now < due:
            sleep(due - now)
        started = clock()
        send(batch)
        sends.append(Send(index, due, started))
    return sends
