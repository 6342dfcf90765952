"""Shared pieces of the staged batch ingestion kernel.

There is one kernel: :meth:`repro.core.aion.Aion.receive_many`, a
**route** pass that decodes an arrival batch's columns into flat
parallel op arrays and per-key op streams, a **frontier probe** pass
that walks those streams against the versioned structures
(:func:`~repro.core.versioned.probe_columns`), and a **verdict** pass
that applies the collected results — tracking, re-evaluations, conflict
reports — in arrival order.  The route pass reads a
:class:`~repro.core.colpack.ColumnarBatch` only: a list of transactions
is flattened once at entry, so ``receive(txn)`` is a flatten plus a
batch of one.  The three online checkers, and what each overrides:

- :class:`~repro.core.aion.Aion` — the kernel; probes its own
  structures, SI visibility.
- :class:`~repro.core.sharded.ShardedAion` — ``_new_key_streams``
  (streams filed per shard) and ``_probe`` (each shard probes its own
  structures).
- :class:`~repro.core.aion_ser.AionSer` — ``_ignores_start_ts``
  (snapshot = commit timestamp, Eq. 1 reported not rejected) and
  ``_probe`` (no writer intervals, strict floor).

Each pass is written once, in line, for the common case.  The route
pass runs the INT rules of :func:`~repro.core.common.simulate` without a
frontier in the same walk that files each transaction's external reads
and final writes — no per-transaction call, no intermediate list.  The
probe pass tries the tail of each key's lists first, because arrivals
come close to commit order: a version or a reader past the newest is
appended, a snapshot past the newest version takes it as its floor, and
a write past every reader sweeps nothing.  The verdict pass re-evaluates
only the writes that have readers to re-check, and walks the batch for
reports only when it has one to make.

This module holds :class:`KernelStats`, the per-stage operation
counters, exposed through each checker's ``kernel_stats`` property and
the service ``STATS`` response, so the hot path is observable without a
profiler (and so tests can pin deterministic op counts instead of
wall-clock).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

__all__ = ["KernelStats"]


class KernelStats:
    """Per-stage operation counters of the staged batch kernel.

    Counters are cumulative over the checker's lifetime and advance with
    the work the kernel routes: one batch per ``receive_many`` call, so
    one batch (of one transaction) per ``receive`` call too.  They are
    derivable from the history alone, which is what lets the kernel's
    tests pin them to exact values instead of wall-clock.
    """

    __slots__ = (
        "batches",
        "txns",
        "max_batch",
        "route_ops",
        "probe_reads",
        "probe_writes",
        "verdict_tracks",
        "verdict_reevals",
        "verdict_conflicts",
        "sample_every",
        "timed_batches",
        "route_seconds",
        "probe_seconds",
        "verdict_seconds",
        "batch_seconds",
        "slow_threshold",
        "slow_batches",
        "on_slow_batch",
    )

    def __init__(self) -> None:
        #: Batches routed through the kernel.
        self.batches = 0
        #: Transactions decoded by the route pass (including rejects).
        self.txns = 0
        #: Largest batch seen.
        self.max_batch = 0
        #: Raw history operations decoded by the route pass (every op of
        #: every routed transaction, rejects included — the flat arrays
        #: hold the deduplicated subset counted by the probe counters).
        self.route_ops = 0
        #: Frontier visibility probes issued for external reads.
        self.probe_reads = 0
        #: Frontier inserts (and fused overlap queries) for writes.
        self.probe_writes = 0
        #: EXT verdicts tracked by the verdict pass.
        self.verdict_tracks = 0
        #: EXT re-evaluations applied by the verdict pass.
        self.verdict_reevals = 0
        #: NOCONFLICT violations reported by the verdict pass.
        self.verdict_conflicts = 0
        #: Sample per-stage wall times on every Nth batch; 0 disables
        #: timing entirely (the library/bench default — a comparison and
        #: branch is all an untimed batch pays).
        self.sample_every = 0
        #: Batches whose stage timings were sampled.
        self.timed_batches = 0
        #: Accumulated wall time of sampled batches, per stage, seconds.
        self.route_seconds = 0.0
        self.probe_seconds = 0.0
        self.verdict_seconds = 0.0
        #: Whole-call wall time of sampled batches, seconds (covers the
        #: three stages plus routing glue; ≥ the stage sum).
        self.batch_seconds = 0.0
        #: Whole-call wall time (seconds) above which a batch is traced
        #: through :attr:`on_slow_batch`; 0.0 disables the trace.
        self.slow_threshold = 0.0
        #: Batches that crossed :attr:`slow_threshold`.
        self.slow_batches = 0
        #: Optional hook called with a structured trace record for each
        #: slow batch (e.g. :meth:`repro.obs.trace.SlowBatchLog.record`).
        self.on_slow_batch: Optional[Any] = None

    def timing_enabled(self) -> bool:
        """Whether the *next* batch should sample stage wall times."""
        return self.sample_every > 0 and self.batches % self.sample_every == 0

    def record_slow(self, trace: Dict[str, Any]) -> None:
        """Count a slow batch and invoke the hook, swallowing hook errors
        — tracing must never change a verdict or kill ingestion."""
        self.slow_batches += 1
        hook = self.on_slow_batch
        if hook is not None:
            try:
                hook(trace)
            except Exception:  # pragma: no cover - defensive
                pass

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict snapshot for the service ``STATS`` response."""
        return {
            "batches": self.batches,
            "txns": self.txns,
            "max_batch": self.max_batch,
            "route_ops": self.route_ops,
            "probe_reads": self.probe_reads,
            "probe_writes": self.probe_writes,
            "verdict_tracks": self.verdict_tracks,
            "verdict_reevals": self.verdict_reevals,
            "verdict_conflicts": self.verdict_conflicts,
            "timed_batches": self.timed_batches,
            "route_seconds": self.route_seconds,
            "probe_seconds": self.probe_seconds,
            "verdict_seconds": self.verdict_seconds,
            "batch_seconds": self.batch_seconds,
            "slow_batches": self.slow_batches,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"KernelStats({self.as_dict()!r})"
