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

The walk runs over a :class:`~repro.core.colpack.ColumnarBatch` and
keeps no object per transaction: the transaction indices are sorted
twice, by ``(start_ts, tid)`` and by ``(commit_ts, tid)``
(:func:`~repro.core.common.timestamp_order`, one packed ``int`` per
index, into an ``array('q')``), and a two-pointer merge of the two
orders yields the events — on equal timestamps a start before a commit,
the order the old ``(ts, phase, tid, index)`` tuples sorted into.  The
accepted indices are the batch's ``range`` unless Eq. 1 offenders exist
(then a one-byte-per-row mask), and the retained tids are an
``array('q')``.  Each start event
replays the transaction's slice of the flat op columns through
:func:`repro.core.common.simulate`.  A history
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
import operator
import time
from array import array
from itertools import compress
from typing import Callable, Dict, List, Optional, Sequence, Set, Union

from repro.core.batch import ColumnarBatch
from repro.core.common import SessionTracker, simulate, timestamp_order
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
    - ``LIGHT`` — drop the retained set of processed transactions every
      ``gc_every`` commits; cheap.
    - ``FULL`` — as LIGHT, plus a full host garbage collection each
      cycle, whose cost grows with live-heap size — the effect behind
      the gc-10k ≫ gc-50k runtimes of Fig 6a.
    """

    NONE = "none"
    LIGHT = "light"
    FULL = "full"


class ChronosReport:
    """Stage timing and counters for one check (Fig 8/9 decomposition).

    ``peak_retained`` is the peak number of transactions retained in the
    working set between GCs; ``memory_samples`` holds
    ``(processed_txns, estimated_bytes)`` pairs, only when a sampler is
    installed (Fig 10).
    """

    __slots__ = _fields = (
        "sort_seconds",
        "check_seconds",
        "gc_seconds",
        "gc_runs",
        "n_transactions",
        "n_operations",
        "peak_retained",
        "memory_samples",
    )
    __hash__ = None  # type: ignore[assignment]

    def __init__(
        self,
        sort_seconds: float = 0.0,
        check_seconds: float = 0.0,
        gc_seconds: float = 0.0,
        gc_runs: int = 0,
        n_transactions: int = 0,
        n_operations: int = 0,
        peak_retained: int = 0,
        memory_samples: Optional[List[tuple]] = None,
    ) -> None:
        self.sort_seconds = sort_seconds
        self.check_seconds = check_seconds
        self.gc_seconds = gc_seconds
        self.gc_runs = gc_runs
        self.n_transactions = n_transactions
        self.n_operations = n_operations
        self.peak_retained = peak_retained
        self.memory_samples = [] if memory_samples is None else memory_samples

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"ChronosReport({shown})"

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
        #: Tids of processed transactions not yet recycled, in machine
        #: words (8 bytes each, no ``int`` object): it grows by one per
        #: commit and empties at each GC cycle — Fig 10's sawtooth.
        self.retained = array("q")

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def check(self, history: Union[History, ColumnarBatch]) -> CheckResult:
        """Check an entire history for SI; returns all violations found."""
        if isinstance(history, ColumnarBatch):
            return self._walk(history)
        return self.check_transactions(history.transactions)

    def check_transactions(self, transactions: Sequence[Transaction]) -> CheckResult:
        """Check a list of transactions."""
        return self._walk(ColumnarBatch.from_transactions(transactions))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _walk(self, batch: ColumnarBatch) -> CheckResult:
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
        tids = batch.tids
        starts = batch.starts
        commits = batch.commits
        # Without offenders (the usual case) nothing is built to say so.
        accepted: Optional[bytes] = None
        if any(map(operator.gt, starts, commits)):
            accepted = bytes(map(operator.le, starts, commits))  # one byte a row
            for index in compress(range(len(batch)), map(operator.gt, starts, commits)):
                report_violation(
                    TimestampOrderViolation(
                        axiom=Axiom.TS_ORDER,
                        tid=tids[index],
                        start_ts=starts[index],
                        commit_ts=commits[index],
                    )
                )
        start_order = timestamp_order(starts, tids, accepted)
        commit_order = timestamp_order(commits, tids, accepted)
        report.sort_seconds = time.perf_counter() - t0

        # --- Checking stage (lines 2:3 – 2:33).  The 2N events are the
        # two orders merged, a start before a commit on equal timestamps.
        # Every start precedes its own commit, so the starts run out no
        # later than the commits; ``end_ts`` stands in for the start
        # after the last one.
        t0 = time.perf_counter()
        frontier = self.frontier
        ongoing = self.ongoing
        state = self.int_ext_state
        retained = self.retained
        sessions = SessionTracker()
        int_reports: List[Violation] = []
        report_int = int_reports.append
        gc_every = self._gc_every
        sampler = self._memory_sampler
        processed = 0
        end_ts = commits[commit_order[-1]] + 1 if commit_order else 0
        pending = iter(start_order)
        started = next(pending, None)
        start_ts = end_ts if started is None else starts[started]

        for index in commit_order:
            commit_ts = commits[index]
            while start_ts <= commit_ts:
                # ---- start event: SESSION, EXT, INT; register writes.
                tid = tids[started]
                writes = simulate(
                    batch, started, tid, start_ts, sessions, frontier, report_violation, report_int
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
                started = next(pending, None)
                start_ts = end_ts if started is None else starts[started]
            # ---- commit event: NOCONFLICT; advance frontier; GC.
            tid = tids[index]
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
        del self.retained[:]
        if self._gc_mode is GcMode.FULL:
            _host_gc.collect()
