"""Chronos — the offline timestamp-based SI checker (Algorithm 2).

Chronos simulates the execution of a database assuming the start and
commit events of transactions happen in timestamp order (the arbitration
order of Definition 5).  Walking the ``2N`` events in one pass it checks:

- **SESSION** at each start event — the transaction carries the next
  sequence number of its session and starts after its predecessor commits;
- **INT / EXT** at each start event — every read is replayed against the
  transaction's own partial state (INT) or the committed ``frontier``
  (EXT), which at that moment holds exactly the snapshot of Definition 6;
- **Eq. 1** and **NOCONFLICT** at each commit event — removing the
  transaction from the per-key ``ongoing`` writer sets and reporting any
  writers still in flight.

The walk runs over a :class:`~repro.core.colpack.ColumnarBatch`: events
are plain ``(ts, phase, tid, index)`` tuples sorted without a key
function, and each start event replays the transaction's slice of the
flat op columns through :func:`repro.core.common.simulate`.  A history
file decoded by :func:`~repro.histories.serialization.load_columns` is
checked as it is; a :class:`History` or a transaction list is flattened
once (:meth:`ColumnarBatch.from_transactions`) and takes the same walk —
there is no second, object-walking path.

Complexity is ``O(N log N + M)``: one sort of the timestamps plus
amortized constant work per operation (§III-B3).  All violations in a
history are reported; the checker never stops at the first one.

Garbage collection (§V-C): per-transaction state (``int_val`` /
``ext_val``) is always dropped at commit, as in the pseudocode.  The
*periodic* recycling of processed transactions studied in Fig 6/9/10 is
controlled by ``gc_every`` and ``gc_mode``; ``GcMode.FULL`` additionally
invokes the host garbage collector, reproducing the paper's
cost-of-frequent-GC effect with real (not simulated) work.
"""

from __future__ import annotations

import enum
import gc as _host_gc
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Union

from repro.core.colpack import ColumnarBatch
from repro.core.common import SessionTracker, simulate
from repro.core.violations import (
    Axiom,
    CheckResult,
    ConflictViolation,
    TimestampOrderViolation,
    Violation,
)
from repro.histories.model import History, Transaction

__all__ = ["Chronos", "ChronosReport", "GcMode"]


class GcMode(enum.Enum):
    """How the periodic transaction-recycling GC behaves.

    - ``NONE`` — never recycle (``gc-∞`` in Fig 6); per-txn cleanup of
      ``int_val``/``ext_val`` still happens at every commit.
    - ``LIGHT`` — drop references to processed transactions every
      ``gc_every`` commits; cheap, frees memory if the caller consumed
      the history.
    - ``FULL`` — as LIGHT, plus a full host garbage collection each
      cycle, whose cost grows with live-heap size — the effect behind
      the gc-10k ≫ gc-50k runtimes of Fig 6a.
    """

    NONE = "none"
    LIGHT = "light"
    FULL = "full"


@dataclass
class ChronosReport:
    """Stage timing and counters for one check (Fig 8/9 decomposition)."""

    sort_seconds: float = 0.0
    check_seconds: float = 0.0
    gc_seconds: float = 0.0
    gc_runs: int = 0
    n_transactions: int = 0
    n_operations: int = 0
    #: Peak number of transactions retained in the working set between GCs.
    peak_retained: int = 0
    #: Memory samples as ``(processed_txns, estimated_bytes)`` pairs, only
    #: populated when a sampler is installed (Fig 10).
    memory_samples: List[tuple] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return self.sort_seconds + self.check_seconds + self.gc_seconds


class Chronos:
    """Offline SI checker over key-value and list histories.

    Parameters
    ----------
    gc_every:
        Recycle processed transactions every this many commits
        (``gc-10k`` / ``gc-20k`` / ... in the figures).  ``None`` means
        never (``gc-∞``).
    gc_mode:
        See :class:`GcMode`.  Ignored when ``gc_every`` is None.
    memory_sampler:
        Optional callable invoked as ``sampler(checker)`` after every
        ``sample_every`` commits; its return value is recorded in the
        report together with the processed-transaction count.
    """

    def __init__(
        self,
        *,
        gc_every: Optional[int] = None,
        gc_mode: GcMode = GcMode.LIGHT,
        memory_sampler: Optional[Callable[["Chronos"], int]] = None,
        sample_every: int = 1000,
    ) -> None:
        if gc_every is not None and gc_every <= 0:
            raise ValueError("gc_every must be positive or None")
        self._gc_every = gc_every
        self._gc_mode = gc_mode if gc_every is not None else GcMode.NONE
        self._memory_sampler = memory_sampler
        self._sample_every = max(1, sample_every)
        self.report = ChronosReport()
        # Live checker state, exposed for the memory sampler.
        self.frontier: Dict[str, object] = {}
        self.ongoing: Dict[str, Set[int]] = {}
        #: Resolved writes of every started, uncommitted transaction.
        self.int_ext_state: Dict[int, Dict[str, object]] = {}
        #: Tids of processed transactions not yet recycled.
        self.retained: List[int] = []

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def check(self, history: Union[History, ColumnarBatch]) -> CheckResult:
        """Check an entire history for SI; returns all violations found."""
        if isinstance(history, ColumnarBatch):
            return self._walk(history, consume=False)
        return self.check_transactions(history.transactions)

    def check_transactions(
        self, transactions: Sequence[Transaction], *, consume: bool = False
    ) -> CheckResult:
        """Check a list of transactions.

        With ``consume=True`` the checker drops its references to
        processed work as it goes — the events of each committed
        transaction, and under a periodic GC mode the retained set in
        batches — so that a caller that also relinquishes its own
        references observes the diminishing-memory behaviour of §III-B3.
        """
        return self._walk(ColumnarBatch.from_transactions(transactions), consume)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _walk(self, batch: ColumnarBatch, consume: bool) -> CheckResult:
        result = CheckResult()
        report_violation = result.violations.append
        report = self.report = ChronosReport(
            n_transactions=len(batch), n_operations=len(batch.op_kinds)
        )

        # --- Sorting stage (line 2:2).  Eq. 1 offenders are reported here
        # and excluded from the simulation so their events cannot poison
        # the ongoing/frontier state (the paper reports the error inline
        # at the commit event; the verdict set is identical).
        t0 = time.perf_counter()
        events: List[Optional[tuple]] = []
        add_event = events.append
        for index, (tid, start_ts, commit_ts) in enumerate(
            zip(batch.tids, batch.starts, batch.commits)
        ):
            if start_ts > commit_ts:
                report_violation(
                    TimestampOrderViolation(
                        axiom=Axiom.TS_ORDER, tid=tid, start_ts=start_ts, commit_ts=commit_ts
                    )
                )
            else:
                add_event((start_ts, 0, tid, index))
                add_event((commit_ts, 1, tid, index))
        events.sort()  # ties: start before commit, then tid, then arrival
        report.sort_seconds = time.perf_counter() - t0

        # --- Checking stage (lines 2:3 – 2:33).
        t0 = time.perf_counter()
        frontier = self.frontier
        ongoing = self.ongoing
        state = self.int_ext_state
        retained = self.retained
        sessions = SessionTracker()
        int_reports: List[Violation] = []
        report_int = int_reports.append
        started_at: Dict[int, int] = {}
        gc_every = self._gc_every
        sampler = self._memory_sampler
        processed = 0

        for position, (ts, phase, tid, index) in enumerate(events):  # type: ignore[misc]
            if phase == 0:
                # ---- start event: SESSION, EXT, INT; register writes.
                writes = simulate(
                    batch, index, ts, sessions, frontier, report_violation, report_int
                )
                if int_reports:
                    result.violations += int_reports
                    int_reports.clear()
                state[tid] = writes
                for key in writes:
                    writers = ongoing.get(key)
                    if writers is None:
                        ongoing[key] = {tid}
                    else:
                        writers.add(tid)
                if consume:
                    started_at[index] = position
            else:
                # ---- commit event: NOCONFLICT; advance frontier; GC.
                for key, value in state.pop(tid, {}).items():  # gc int_val / ext_val (31–32)
                    writers = ongoing[key]
                    writers.discard(tid)
                    if writers:
                        report_violation(
                            ConflictViolation(
                                axiom=Axiom.NOCONFLICT,
                                tid=tid,
                                key=key,
                                conflicting_tids=frozenset(writers),
                            )
                        )
                    else:
                        del ongoing[key]
                    frontier[key] = value
                processed += 1
                retained.append(tid)
                if consume:
                    events[position] = events[started_at.pop(index)] = None
                if gc_every is not None and processed % gc_every == 0:
                    t_gc = time.perf_counter()
                    self._run_gc()
                    report.gc_seconds += time.perf_counter() - t_gc
                    report.gc_runs += 1
                if sampler is not None and processed % self._sample_every == 0:
                    report.memory_samples.append((processed, sampler(self)))

        report.peak_retained = max(report.peak_retained, len(retained))
        report.check_seconds = time.perf_counter() - t0 - report.gc_seconds
        return result

    def _run_gc(self) -> None:
        """Recycle processed transactions (line 2:33)."""
        # The retained set only grows between cycles, so its peak is its
        # size just before one (or at the end of the walk).
        self.report.peak_retained = max(self.report.peak_retained, len(self.retained))
        self.retained.clear()
        if self._gc_mode is GcMode.FULL:
            _host_gc.collect()
