"""Aion-SER — the online timestamp-based serializability checker (§VI).

Serializability in commit-timestamp order simplifies the online problem:
start timestamps are ignored and NOCONFLICT is not needed, so the checker
keeps only the versioned frontier and the external-read index.  A
transaction's snapshot point is its *commit* timestamp, and an external
read must return the value of the greatest version *strictly below* that
point (the serial predecessor).

Out-of-order arrival still destabilizes EXT: a transaction slotting into
the middle of the serial order changes the predecessor of later readers.
Re-checking mirrors Aion's step ③ with the boundary adjusted: a version
inserted at ``cts`` affects readers with snapshot points in
``(cts, next-version]`` — the upper bound is inclusive because the reader
committing exactly at the next version is that version's own writer and
reads strictly below itself.

The paper derives AION-SER from AION by exactly those substitutions, and
so does the code: :class:`AionSer` *is* :class:`~repro.core.aion.Aion` —
it inherits ``receive`` / ``receive_many`` (validation, hoisted reload,
object and columnar route, verdict walk, timers, resident set), ``poll``,
``finalize`` and the reporting helpers unchanged — with

- ``_ignores_start_ts = True``: the kernel reads snapshot points from the
  commit column (so the SESSION rule compares commit timestamps), reports
  an Eq. 1 offender but still checks it at its commit point (uncounted in
  ``processed``), and tests ``commit_ts`` against the GC boundary for
  reload-on-demand;
- a ``_probe`` that runs :func:`~repro.core.versioned.probe_columns` with
  no writer index and ``strict=True`` (strict floor, closed sweep);
- GC / size hooks that know there are no writer intervals.

Like Cobra, Aion-SER is an online SER checker, but it needs no fence
transactions and keeps checking past violations (Fig 12a/25).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.aion import Aion, AionConfig
from repro.core.common import BOTTOM
from repro.core.versioned import (
    IntervalColumns,
    VersionColumns,
    empty_columns,
    probe_columns,
)
from repro.util.sizeof import deep_sizeof

__all__ = ["AionSer"]


class AionSer(Aion):
    """Online SER checker over key-value histories."""

    _ignores_start_ts = True
    _APPEND_ERROR = (
        "Aion-SER checks key-value histories online; list "
        "(append) histories are checked offline by Chronos-SER"
    )

    def __init__(
        self,
        config: Optional[AionConfig] = None,
        *,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if config is not None and not config.optimized_recheck:
            # The ablation re-resolves expected values with the SI
            # (non-strict) floor; silently accepting the flag would
            # either ignore it or check SER reads against SI visibility.
            raise ValueError(
                "optimized_recheck=False is an SI ablation; Aion-SER does not define it"
            )
        super().__init__(config, clock=clock)
        del self._writers  # NOCONFLICT is not checked: no writer intervals

    def _probe(
        self,
        key_streams: Dict[str, List[int]],
        r_ts: List[int],
        r_tids: List[int],
        w_vals: List[Any],
        w_starts: List[int],
        w_cts: List[int],
        w_tids: List[int],
    ) -> Tuple[List[Any], List[Any], List[Any]]:
        return probe_columns(
            self._frontier,
            None,
            self._ext_reads,
            key_streams,
            r_ts,
            r_tids,
            w_vals,
            w_starts,
            w_cts,
            w_tids,
            True,
            BOTTOM,
            strict=True,
        )

    def _slow_batch_tags(self) -> Dict[str, Any]:
        return {"checker": "aion-ser"}

    def estimated_bytes(self) -> int:
        """Deep-size estimate of the checker's live structures."""
        return deep_sizeof((self._frontier, self._ext_reads, self._resident, self._ext))

    # ------------------------------------------------------------------
    # Garbage collection hooks (the cycle itself is SpillingGc's; SER
    # keeps no writer intervals, so only the frontier is evicted)
    # ------------------------------------------------------------------

    def _evict_columns(self, ts: int) -> Tuple[VersionColumns, IntervalColumns]:
        return self._frontier.evict_below(ts), empty_columns()

    def _merge_columns(self, versions: VersionColumns, intervals: IntervalColumns) -> None:
        self._frontier.merge(versions)
