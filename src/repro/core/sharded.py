"""ShardedAion — Aion's batch kernel over hash-partitioned structures.

Algorithm 3's per-arrival work decomposes cleanly by key: the versioned
frontier query of step ① , the interval-overlap query of step ② and the
EXT re-check sweep of step ③ each touch exactly the keys the arriving
transaction reads or writes.  :class:`ShardedAion` therefore *is*
:class:`~repro.core.aion.Aion` — it inherits ``receive_many`` whole:
validation, Eq. 1, hoisted reload-on-demand, SESSION, INT, the route
pass (object and columnar), EXT tracking, NOCONFLICT reports, timers
and the resident set — and differs in one thing only, where the two
per-key structures (:class:`~repro.core.versioned.VersionedFrontier`,
:class:`~repro.core.versioned.ExtReadIndex`) live: hash-partitioned
across N in-process shards instead of in the checker.  It overrides the
kernel's seams:

- **where streams are filed** — the route pass appends each key's
  arrival-ordered op stream to a dict whose ``__missing__`` files a new
  key's stream under ``shard_of(key)`` (one shard lookup per distinct
  key per batch, memoized in a bounded key → shard cache);
- **the probe step** — :func:`~repro.core.versioned.probe_columns` runs
  once per shard over *its* keys' streams, reading the batch's columns
  by reference and writing straight into the batch's result arrays;
- **GC, read removal and sizing** — each acts on the owning shard's
  structures directly: eviction concatenates the shards' columns, a
  reload hands each shard the rows of its keys, a finalized read leaves
  its shard's index at once, exactly as it leaves Aion's.

The equivalence argument is the kernel's own, restated per shard: a
key's stream holds that key's operations in arrival order whichever
shard owns it, so the owning shard's structures go through exactly the
states Aion's would; streams of different keys touch disjoint state and
commute, so running them grouped by shard changes nothing; and the
inherited verdict pass applies all global effects in arrival order.
Hence verdicts, their *report order*, the kernel counters and, at every
call boundary, each shard's structure sizes summed over shards all
equal single-shard Aion's; ``tests/test_sharded.py`` and
``tests/test_batch_kernel.py`` pin it.
"""

from __future__ import annotations

import zlib
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.aion import Aion, AionConfig
from repro.core.common import BOTTOM
from repro.core.ext_status import REC_SNAPSHOT_TS, REC_TID, ExtRecord, record_keys
from repro.core.versioned import (
    ExtReadIndex,
    VersionColumns,
    VersionedFrontier,
    empty_columns,
    probe_columns,
)
from repro.util.sizeof import deep_sizeof

__all__ = ["ShardedAion", "shard_of"]


def shard_of(key: str, n_shards: int) -> int:
    """Stable key → shard routing (crc32; Python's ``hash`` is salted)."""
    return zlib.crc32(key.encode("utf-8")) % n_shards


#: Entries the coordinator's key → shard cache holds before it is reset —
#: bounds coordinator memory against unbounded key spaces.
_KEY_CACHE_LIMIT = 1 << 18


class _ShardStreams(dict):
    """One batch's per-key op streams, filed under the owning shard as
    the route pass creates them: ``by_shard[s]`` maps exactly shard
    ``s``'s keys to the same list objects this dict holds."""

    __slots__ = ("by_shard", "_shard_for")

    def __init__(self, n_shards: int, shard_for: Callable[[str], int]) -> None:
        self.by_shard: List[Dict[str, List[int]]] = [{} for _ in range(n_shards)]
        self._shard_for = shard_for

    def __missing__(self, key: str) -> List[int]:
        stream = self[key] = self.by_shard[self._shard_for(key)][key] = []
        return stream


class ShardedAion(Aion):
    """Online SI checker with hash-partitioned state and batch ingestion.

    Parameters
    ----------
    config:
        Shared :class:`~repro.core.aion.AionConfig` tunables.
    n_shards:
        Number of independent shard states (1 behaves like :class:`Aion`).
    clock:
        Zero-argument time source, as for :class:`Aion`.
    executor:
        Only ``"serial"``: every shard is probed in-process.  The worker
        executors were deleted; naming one raises :class:`ValueError`.
    """

    def __init__(
        self,
        config: Optional[AionConfig] = None,
        *,
        n_shards: int = 4,
        clock: Optional[Callable[[], float]] = None,
        executor: str = "serial",
    ) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if executor != "serial":
            raise ValueError(
                f"unknown executor {executor!r}: only 'serial' remains "
                "(the worker-process executors were deleted)"
            )
        super().__init__(config, clock=clock)
        # The per-key structures live in the shards, not the coordinator.
        del self._frontier, self._ext_reads
        self.n_shards = n_shards
        #: Per shard, its ``(frontier, ext_reads)``.
        self._shards: List[Tuple[VersionedFrontier, ExtReadIndex]] = [
            (VersionedFrontier(), ExtReadIndex()) for _ in range(n_shards)
        ]
        #: Bounded key → shard memo shared by routing, read removal and
        #: spill reload.
        self._key_shards: Dict[str, int] = {}
        #: Ops routed to each shard by the most recent batch — the cheap
        #: per-shard load-skew signal :meth:`shard_stats` and the
        #: slow-batch trace export.
        self._last_batch_commands: List[int] = [0] * n_shards

    # ------------------------------------------------------------------
    # Receiving transactions: Aion.receive_many, with two seams overridden
    # ------------------------------------------------------------------

    def _shard_for(self, key: str) -> int:
        cache = self._key_shards
        shard = cache.get(key)
        if shard is None:
            if len(cache) >= _KEY_CACHE_LIMIT:
                cache.clear()
            shard = cache[key] = shard_of(key, self.n_shards)
        return shard

    def _new_key_streams(self) -> _ShardStreams:
        return _ShardStreams(self.n_shards, self._shard_for)

    def _probe(
        self,
        key_streams: _ShardStreams,
        r_ts: List[int],
        r_tids: List[int],
        w_vals: List[Any],
        w_starts: List[int],
        w_cts: List[int],
        w_tids: List[int],
    ) -> Tuple[List[Any], List[Any], List[Any]]:
        """Probe step: run every shard over its keys' streams; all of
        them fill the batch's three result columns."""
        by_shard = key_streams.by_shard
        optimized = self.config.optimized_recheck
        self._last_batch_commands = [
            sum(map(len, streams.values())) for streams in by_shard
        ]
        results = (
            [None] * len(r_ts), [None] * len(w_cts), [None] * len(w_cts)
        )
        for (frontier, ext_reads), streams in zip(self._shards, by_shard):
            if streams:
                probe_columns(
                    frontier, ext_reads, streams, r_ts, r_tids,
                    w_vals, w_starts, w_cts, w_tids, optimized, BOTTOM, results,
                )
        return results

    def _slow_batch_tags(self) -> Dict[str, Any]:
        return {
            "checker": "sharded-aion",
            "shard_commands": list(self._last_batch_commands),
        }

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def estimated_bytes(self) -> int:
        """Deep-size estimate across coordinator and all shards."""
        return deep_sizeof((self._resident, self._ext, self._shards))

    @property
    def pending_ext_reads(self) -> int:
        """External reads the shards index for step-③ re-checking."""
        return sum(len(ext_reads) for _, ext_reads in self._shards)

    def shard_stats(self) -> List[Dict[str, int]]:
        """One row per shard: structure sizes and the ops the latest
        batch routed to it.  ``intervals`` counts the entries the
        NOCONFLICT query walks: on an SI frontier, every version."""
        return [
            {
                "versions": len(frontier),
                "intervals": len(frontier),
                "ext_reads": len(ext_reads),
                "shard": shard,
                "last_batch_commands": commands,
            }
            for shard, ((frontier, ext_reads), commands) in enumerate(
                zip(self._shards, self._last_batch_commands)
            )
        ]

    # ------------------------------------------------------------------
    # Garbage collection hooks (the cycle itself is SpillingGc's)
    # ------------------------------------------------------------------

    def _evict_columns(self, ts: int) -> VersionColumns:
        """Evict on every shard; concatenate the shards' columns."""
        versions = empty_columns()
        for frontier, _ in self._shards:
            for merged, part in zip(versions, frontier.evict_below(ts)):
                merged += part
        return versions

    def _merge_columns(self, versions: VersionColumns) -> None:
        """Hand each shard the reloaded rows of the keys it owns."""
        shard_for = self._shard_for
        split = [empty_columns() for _ in range(self.n_shards)]
        keys, counts, *columns = versions
        lo = 0
        for key, count in zip(keys, counts):
            hi = lo + count
            part_keys, part_counts, *part_columns = split[shard_for(key)]
            part_keys.append(key)
            part_counts.append(count)
            for part_column, column in zip(part_columns, columns):
                part_column += column[lo:hi]
            lo = hi
        for (frontier, _), shard_versions in zip(self._shards, split):
            frontier.merge(shard_versions)

    def _drop_finalized_reads(self, records: List[ExtRecord], drained: bool) -> None:
        # Aion's rule, applied to the owning shard's index: a drained
        # tracker (the end-of-stream flush) leaves nothing worth keeping.
        if drained:
            for _, ext_reads in self._shards:
                ext_reads.clear()
            return
        removers = [ext_reads.remove for _, ext_reads in self._shards]
        shard_for = self._shard_for
        for record in records:
            sts = record[REC_SNAPSHOT_TS]
            tid = record[REC_TID]
            for key in record_keys(record):
                removers[shard_for(key)](key, sts, tid)
