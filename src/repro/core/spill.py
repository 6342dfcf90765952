"""The one GC path of the online checkers.

Aion cannot, in the worst case, discard anything permanently — a delayed
transaction may still require re-checking against old state (§III-C).  Its
GC therefore *transfers* structures below a chosen timestamp from memory
to disk and reloads them on demand (Algorithm 3, the ▨/▧ annotations).

:class:`SpillingGc` is that protocol — resident index, ``collect_below``,
the threshold rule that triggers it, reload-on-demand — written once for
:class:`~repro.core.aion.Aion` and :class:`~repro.core.aion_ser.AionSer`
(and the ladder's ``ShardedAion``); each checker only says how to evict
and re-merge its per-key structures.  Evicted state travels as the
flat columns of :mod:`repro.core.versioned`
(:data:`~repro.core.versioned.VersionColumns`: the frontier's entries,
each a writer's commit and start timestamps, tid and value), which a
:class:`~repro.core.segments.SpillStore` writes as one segment file per
cycle.  The store and the segment codec live in
:mod:`repro.core.segments`, imported at the first spill.

The paper's Aion also moves the *transactions* below the watermark to
disk, because its step ③ re-checks transactions.  These checkers re-check
the per-key read index and the flat EXT records instead, so no arrived
transaction is kept at all: what is "resident" is one ``tid -> commit_ts``
index entry per arrival, which a cycle releases — nothing about it is
written.  A record of the arrivals themselves is the collector's WAL, not
the checker's.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Dict, Optional

from repro.util.hostgc import paused

if TYPE_CHECKING:
    from repro.core.segments import SpillStore

__all__ = ["GcReport", "SpillingGc"]


class GcReport:
    """Outcome of one garbage collection cycle.

    ``evicted_intervals`` counts the evicted entries the NOCONFLICT
    query walks: every evicted version under SI, none under SER (which
    asks no overlap query).
    """

    __slots__ = _fields = (
        "requested_ts",
        "effective_ts",
        "evicted_versions",
        "evicted_intervals",
        "evicted_txns",
        "seconds",
    )
    __hash__ = None  # type: ignore[assignment]

    def __init__(
        self,
        requested_ts: int,
        effective_ts: int,
        evicted_versions: int,
        evicted_intervals: int,
        evicted_txns: int,
        seconds: float,
    ) -> None:
        self.requested_ts = requested_ts
        self.effective_ts = effective_ts
        self.evicted_versions = evicted_versions
        self.evicted_intervals = evicted_intervals
        self.evicted_txns = evicted_txns
        self.seconds = seconds

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"GcReport({shown})"


class SpillingGc:
    """Resident index + garbage collection (lines 3:62–3:66), shared by the
    online checkers.

    A checker calls :meth:`_init_gc`, enters each accepted arrival in
    ``_resident`` (``tid -> commit_ts``), and implements
    ``_evict_columns(ts) -> VersionColumns`` and
    ``_merge_columns(versions)`` over its per-key frontier, and
    ``self._ignores_start_ts`` says whether the checker asks no overlap
    query.
    """

    def _init_gc(self) -> None:
        #: ``tid -> commit_ts`` of every arrival no cycle has released
        #: yet: all the GC paths need of a transaction.  One dict store
        #: per arrival on the hot path (a retransmitted tid stays one
        #: entry); commit order is worked out at the GC entry points — a
        #: max, a sort of the commit timestamps, one scan — each linear
        #: or near it in what is resident.
        self._resident: Dict[int, int] = {}
        self._spill: Optional[SpillStore] = None
        self._collected_upto: Optional[int] = None

    @property
    def resident_txn_count(self) -> int:
        """Arrivals not yet released by a GC cycle (GC threshold input)."""
        return len(self._resident)

    @property
    def spill_store(self) -> Optional[SpillStore]:
        return self._spill

    def gc_safe_ts(self) -> Optional[int]:
        """Default collection watermark: everything currently resident.

        Eviction is safe at any timestamp because (a) the versioned
        frontier always retains the newest evicted version per key, so
        visibility queries above the watermark stay exact, (b) pending
        EXT verdicts and their re-check index live outside the evicted
        structures, and (c) a severely delayed transaction below the
        watermark transparently reloads the spilled segments.  None when
        nothing is resident."""
        resident = self._resident
        return max(resident.values()) if resident else None

    def suggest_gc_ts(self, keep_recent: int = 2000) -> Optional[int]:
        """A collection watermark that spares the ``keep_recent`` newest
        resident transactions.

        Arrivals lag at most the collector's delay spread behind the
        newest commit, so keeping a recency margin makes dips below the
        collected boundary — each of which forces a segment reload —
        rare instead of constant.  Returns None when the margin already
        covers everything resident.
        """
        excess = len(self._resident) - keep_recent
        return sorted(self._resident.values())[excess - 1] if excess > 0 else None

    def collect_at_threshold(self, threshold: int) -> Optional[GcReport]:
        """The one GC trigger of the runner's ``checking-gc`` and the
        daemon's ``gc_threshold``: once ``threshold`` arrivals are
        resident, collect below the watermark that spares the newest
        ``max(1, threshold // 2)`` of them.

        Returns the cycle's report, or None when no cycle ran; a
        threshold of 0 or less never collects.
        """
        if threshold <= 0 or len(self._resident) < threshold:
            return None
        target = self.suggest_gc_ts(keep_recent=max(1, threshold // 2))
        return None if target is None else self.collect_below(target)

    def collect_below(self, ts: Optional[int] = None) -> GcReport:
        """Transfer structures with timestamps <= ``ts`` to disk and
        release the resident-index entries at or below it.

        ``ts`` defaults to (and is always clamped by) :meth:`gc_safe_ts`.

        Report contract: ``requested_ts`` echoes the caller's ``ts`` (the
        safe watermark when ``ts`` was None), and ``effective_ts`` is the
        watermark actually applied.  When nothing is resident the cycle is
        a no-op with zero counts; ``effective_ts`` then equals the
        requested ``ts`` — or the ``-1`` sentinel only when no ``ts`` was
        given either, i.e. there was no watermark at all.

        Runs with the host collector paused: the evicted columns and the
        segment image are acyclic and dead by the time it returns.
        """
        with paused():
            return self._collect_below(ts)

    def _collect_below(self, ts: Optional[int]) -> GcReport:
        t0 = time.perf_counter()
        safe = self.gc_safe_ts()
        if safe is None:
            requested = ts if ts is not None else -1
            return GcReport(requested, requested, 0, 0, 0, time.perf_counter() - t0)
        effective = safe if ts is None else min(ts, safe)

        versions = self._evict_columns(effective)
        resident = self._resident
        released = [tid for tid, commit_ts in resident.items() if commit_ts <= effective]
        for tid in released:
            del resident[tid]

        if versions[0]:
            if self._spill is None:
                from repro.core.segments import SpillStore

                self._spill = SpillStore()
            # The segment's range must bound its *content*: reloaded and
            # re-evicted data can be much older than the previous GC
            # boundary, and a range that overstates min_ts would hide the
            # segment from reloads that need it.
            content_min = min(effective, min(versions[2]), min(versions[3]))
            self._spill.spill(content_min, effective, versions)
        if self._collected_upto is None or effective > self._collected_upto:
            self._collected_upto = effective
        return GcReport(
            requested_ts=ts if ts is not None else safe,
            effective_ts=effective,
            evicted_versions=len(versions[2]),
            evicted_intervals=0 if self._ignores_start_ts else len(versions[2]),
            evicted_txns=len(released),
            seconds=time.perf_counter() - t0,
        )

    def _reload_below(self, ts: Optional[int]) -> None:
        """Reload spilled segments with content at or below ``ts`` (None = all).

        Newest segment first: ``merge`` puts a reloaded entry before the
        resident ones sharing its commit timestamp, so this order
        restores each key's insertion order.
        """
        if self._spill is not None:
            with paused():
                for versions in reversed(self._spill.reload_overlapping(ts)):
                    self._merge_columns(versions)

    def close(self) -> None:
        """Release the spill directory, if any."""
        if self._spill is not None:
            self._spill.close()
            self._spill = None
