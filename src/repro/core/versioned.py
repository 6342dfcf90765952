"""Timestamp-versioned structures backing Aion (Algorithm 3).

The paper extends Chronos's ``frontier`` and ``ongoing`` maps to
``frontier_ts`` and ``ongoing_ts``, "versioned by timestamps and
support[ing] timestamp-based search, returning the latest version before a
given timestamp".  Materializing a full map image per timestamp would be
quadratic; these classes store the equivalent information *per key*:

- :class:`VersionedFrontier` — for every key, versions ordered by commit
  timestamp, ``commit_ts -> (value, tid)``.  ``frontier_ts[ts][k]`` of
  the paper is exactly :meth:`VersionedFrontier.latest_at` (greatest
  version with ``commit_ts <= ts``); Aion-SER reads the greatest version
  strictly below (:func:`probe_columns`, ``strict``).
  Keys with at most a handful of versions — the overwhelming majority
  under skewed workloads — are kept in a pair of plain parallel lists
  and only *promoted* to a :class:`~repro.util.sortedmap.SortedMap`
  when they outgrow the threshold, skipping the container object and
  method-dispatch overhead on the cold-key fast path.
- :class:`WriterIntervals` — for every key, the lifetimes
  ``[start_ts, commit_ts]`` of its writers; ``ongoing_ts[ts][k]`` is the
  set of intervals containing ``ts``, and NOCONFLICT re-checking (step ②)
  is an interval-overlap query.
- :class:`ExtReadIndex` — for every key, the external reads indexed by
  their snapshot point, so EXT re-checking (step ③) touches only reads
  whose visible version actually changed.

The frontier and the writer intervals support eviction below a GC-safe
timestamp and re-merging of reloaded segments (the ``GARBAGE COLLECT`` /
reload-on-demand protocol); pending reads are never evicted — a read
leaves the index when its verdict is finalized.

The checkers read and write all three through one batched entry point,
:func:`probe_columns`, which applies the small-key fast paths inline.
The one-query methods that stay public beside it say the same thing per
call and must be kept in lockstep with its inline branches
(``tests/test_versioned.py`` holds both to the same answers):
``insert_and_next_ts`` / ``WriterIntervals.add`` re-insert reloaded
segments, which arrive as columns, not streams; ``value_at`` serves the
ablation branch; ``insert_and_next_ts``, ``overlap_add``,
``ExtReadIndex.add`` and ``affected_by`` / ``collect_affected`` are what
the ladder benchmark's structure rungs time (the last is also the
promoted-key sweep); ``latest_at`` is how tests inspect state.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.util.intervals import IntervalIndex
from repro.util.sizeof import register_sizer
from repro.util.sortedmap import SortedMap

__all__ = [
    "FrontierVersion",
    "VersionColumns",
    "IntervalColumns",
    "empty_columns",
    "VersionedFrontier",
    "WriterIntervals",
    "ExtReadIndex",
]

FrontierVersion = Tuple[int, Any, int]  # (commit_ts, value, writer tid)

#: Evicted state as flat columns: a key list, per-key row counts, and one
#: list per field holding every key's rows back to back.  ``evict_below``
#: emits this shape, ``merge`` accepts it, and the spill encoder writes
#: it without regrouping.
VersionColumns = Tuple[  # (keys, counts, commit_ts, values, tids)
    List[str], List[int], List[int], List[Any], List[int]
]
IntervalColumns = Tuple[  # (keys, counts, start_ts, end_ts, tids)
    List[str], List[int], List[int], List[int], List[int]
]


def empty_columns() -> Tuple[List, List, List, List, List]:
    """Columns holding nothing (of either shape)."""
    return [], [], [], [], []

#: Keys stay in the small-key representation (a ``(ts_list, payload_list)``
#: pair of plain parallel lists) until they hold more versions than this;
#: then they are promoted to a SortedMap.  Under the skewed key
#: distributions real workloads produce, most keys never promote.  The
#: threshold is deliberately large: a promoted key pays a method call and
#: a ``maxes`` descent per operation, which only starts winning once the
#: key outgrows a single SortedMap chunk — below that, a bisect plus a
#: ``list.insert`` memmove on one flat list is strictly cheaper.  On top
#: of that, every timestamp column here (frontier commit points, writer
#: interval ends, EXT snapshot points) arrives *near-sorted*, so inserts
#: land at or near the tail and the memmove is a few entries regardless
#: of key size — the chunked container's only real advantage (bounded
#: memmove on random-position inserts) never applies.  4096 keeps even
#: the hottest keys of the throughput workloads on the inline path;
#: promotion remains as the safety net for adversarial insert orders on
#: genuinely huge keys.
_SMALL_MAX = 4096


class VersionedFrontier:
    """Per-key committed versions ordered by commit timestamp.

    ``_by_key`` maps a key either to a ``(ts_list, payload_list)`` tuple
    of parallel sorted lists (the adaptive small-key representation) or,
    once the key accumulates more than ``_SMALL_MAX`` versions, to a
    :class:`SortedMap`.  All public methods branch on the representation;
    the small path is a single C-speed bisect on a short list with no
    container-object indirection.
    """

    __slots__ = ("_by_key", "_n_versions", "_multi")

    def __init__(self) -> None:
        self._by_key: Dict[str, Any] = {}
        self._n_versions = 0
        #: Keys holding two or more versions, added on the 1→2 insert and
        #: dropped when eviction leaves one.  Eviction always keeps a
        #: key's newest evictable version, so only these keys can lose
        #: anything: :meth:`evict_below` walks this set, never the whole
        #: index.  Promoted (SortedMap) keys stay in it for good.
        self._multi: set = set()

    def __len__(self) -> int:
        return self._n_versions

    def insert(self, key: str, commit_ts: int, value: Any, tid: int) -> None:
        """Record that ``tid`` committed ``value`` for ``key`` at ``commit_ts``."""
        self.insert_and_next_ts(key, commit_ts, value, tid)

    def latest_at(self, key: str, ts: int) -> Optional[FrontierVersion]:
        """Greatest version with ``commit_ts <= ts`` (SI visibility, Def. 6)."""
        versions = self._by_key.get(key)
        if versions is None:
            return None
        if type(versions) is tuple:
            timestamps, payloads = versions
            j = bisect_right(timestamps, ts) - 1
            if j < 0:
                return None
            value, tid = payloads[j]
            return (timestamps[j], value, tid)
        item = versions.floor_item(ts)
        if item is None:
            return None
        commit_ts, (value, tid) = item
        return (commit_ts, value, tid)

    def value_at(self, key: str, ts: int, default: Any = None) -> Any:
        """The visible *value* at ``ts``, or ``default`` for no version.

        Equivalent to ``latest_at(key, ts)[1]`` without materializing the
        version tuple — the batch ingestion kernel issues this query per
        external read, where the tuple build is pure overhead.
        """
        versions = self._by_key.get(key)
        if versions is None:
            return default
        if type(versions) is tuple:
            timestamps = versions[0]
            j = bisect_right(timestamps, ts) - 1
            if j < 0:
                return default
            return versions[1][j][0]
        item = versions.floor_item(ts)
        if item is None:
            return default
        return item[1][0]

    def insert_and_next_ts(
        self, key: str, commit_ts: int, value: Any, tid: int
    ) -> Optional[int]:
        """Insert a version and return the commit timestamp of the one
        overwriting it (``None`` when it is the newest), in one descent.

        Step ③ needs just that next-overwrite bound for the affected-
        reader sweep, so no successor version tuple is built.
        """
        versions = self._by_key.get(key)
        payload = (value, tid)
        if versions is None:
            self._by_key[key] = ([commit_ts], [payload])
            self._n_versions += 1
            return None
        if type(versions) is tuple:
            timestamps, payloads = versions
            j = bisect_left(timestamps, commit_ts)
            n = len(timestamps)
            if j < n and timestamps[j] == commit_ts:
                payloads[j] = payload
            else:
                timestamps.insert(j, commit_ts)
                payloads.insert(j, payload)
                self._n_versions += 1
                n += 1
                if n == 2:
                    self._multi.add(key)
            nxt = j + 1
            result = timestamps[nxt] if nxt < n else None
            if n > _SMALL_MAX:
                self._by_key[key] = SortedMap._from_sorted(timestamps, payloads)
            return result
        was_present, successor = versions.set_and_higher(commit_ts, payload)
        if not was_present:
            self._n_versions += 1
        return None if successor is None else successor[0]

    def evict_below(self, ts: int) -> VersionColumns:
        """Remove versions with ``commit_ts <= ts``, keeping one per key.

        The newest evictable version of each key is retained: it is still
        the visible version for future snapshots above ``ts``, so dropping
        it would corrupt floor queries (the paper's GC is "conservative"
        for the same reason).  Returns the evicted versions as flat
        columns ``(keys, counts, commit_ts, values, tids)`` for spilling.

        Only keys holding two or more versions are looked at, each decided
        by one comparison (a key loses something iff its *second*-oldest
        version is at or below ``ts``) — a cycle never walks the index.
        """
        keys: List[str] = []
        counts: List[int] = []
        commits: List[int] = []
        payloads: List[Tuple[Any, int]] = []
        by_key = self._by_key
        settled: List[str] = []
        for key in self._multi:
            versions = by_key[key]
            if type(versions) is tuple:
                timestamps, key_payloads = versions
                if timestamps[1] > ts:
                    continue
                cut = bisect_right(timestamps, ts) - 1
                commits += timestamps[:cut]
                payloads += key_payloads[:cut]
                del timestamps[:cut]
                del key_payloads[:cut]
                if len(timestamps) == 1:
                    settled.append(key)
            else:
                if len(versions) < 2 or versions.key_at(1) > ts:
                    continue
                popped = versions.pop_below(ts, inclusive=True)
                keep_ts, keep_payload = popped.pop()
                versions[keep_ts] = keep_payload
                cut = len(popped)
                for commit_ts, payload in popped:
                    commits.append(commit_ts)
                    payloads.append(payload)
            keys.append(key)
            counts.append(cut)
        self._multi.difference_update(settled)
        self._n_versions -= len(commits)
        return keys, counts, commits, [p[0] for p in payloads], [p[1] for p in payloads]

    def merge(self, columns: VersionColumns) -> None:
        """Re-insert previously evicted versions (reload-on-demand)."""
        keys, counts, commits, values, tids = columns
        insert = self.insert_and_next_ts
        lo = 0
        for key, count in zip(keys, counts):
            hi = lo + count
            for row in range(lo, hi):
                insert(key, commits[row], values[row], tids[row])
            lo = hi


class WriterIntervals:
    """Per-key interval index over writer lifetimes (``ongoing_ts``).

    Adaptive like :class:`VersionedFrontier`: ``_by_key[key]`` holds an
    ``(ends, starts, owners)`` triple of plain parallel lists sorted by
    interval *end* (= ``commit_ts``) while the key has at most
    ``_SMALL_MAX`` live intervals, promoting to an
    :class:`IntervalIndex` beyond that.  Commit timestamps arrive in
    near-sorted order, so the small rep inserts by appending at the
    tail; an overlap query for ``[start, end]`` bisects the first end
    reaching ``start`` and scans only the live suffix — the same
    answer-plus-slop cost profile as the reach-pruned chunk index, with
    no container object and no method dispatch for the overwhelmingly
    common small key.  GC truncates the dead prefix in one slice.
    """

    __slots__ = ("_by_key", "_n_intervals")

    def __init__(self) -> None:
        self._by_key: Dict[str, Any] = {}
        self._n_intervals = 0

    def __len__(self) -> int:
        return self._n_intervals

    @staticmethod
    def _promote(ends: List[int], starts: List[int], owners: List[int]) -> IntervalIndex:
        """Build an :class:`IntervalIndex` from the small-rep columns."""
        index = IntervalIndex()
        for i in range(len(ends)):
            index.insert(starts[i], ends[i], owners[i])
        return index

    def add(self, key: str, start_ts: int, commit_ts: int, tid: int) -> None:
        rep = self._by_key.get(key)
        if rep is None:
            self._by_key[key] = ([commit_ts], [start_ts], [tid])
        elif type(rep) is tuple:
            ends, starts, owners = rep
            if commit_ts >= ends[-1]:
                ends.append(commit_ts)
                starts.append(start_ts)
                owners.append(tid)
            else:
                j = bisect_right(ends, commit_ts)
                ends.insert(j, commit_ts)
                starts.insert(j, start_ts)
                owners.insert(j, tid)
            if len(ends) > _SMALL_MAX:
                self._by_key[key] = self._promote(ends, starts, owners)
        else:
            rep.insert(start_ts, commit_ts, tid)
        self._n_intervals += 1

    def overlap_add(
        self, key: str, start_ts: int, commit_ts: int, tid: int
    ) -> List[Tuple[int, int]]:
        """Fused overlap query + insert for the batch kernel's step ②.

        Returns ``(owner_tid, owner_commit_ts)`` pairs for every interval
        of ``key`` overlapping ``[start_ts, commit_ts]`` excluding ``tid``
        itself, then records ``tid``'s own interval (:meth:`add`) in the
        same index descent.
        """
        rep = self._by_key.get(key)
        if rep is None:
            self._by_key[key] = ([commit_ts], [start_ts], [tid])
            self._n_intervals += 1
            return []
        if type(rep) is tuple:
            ends, starts, owners = rep
            hits: List[Tuple[int, int]] = []
            j = bisect_left(ends, start_ts)
            for i in range(j, len(ends)):
                if starts[i] <= commit_ts:
                    owner = owners[i]
                    if owner != tid:
                        hits.append((owner, ends[i]))
            if commit_ts >= ends[-1]:
                ends.append(commit_ts)
                starts.append(start_ts)
                owners.append(tid)
            else:
                j = bisect_right(ends, commit_ts)
                ends.insert(j, commit_ts)
                starts.insert(j, start_ts)
                owners.insert(j, tid)
            if len(ends) > _SMALL_MAX:
                self._by_key[key] = self._promote(ends, starts, owners)
        else:
            hits = rep.overlap_add(start_ts, commit_ts, tid)
        self._n_intervals += 1
        return hits

    def evict_below(self, ts: int) -> IntervalColumns:
        """Remove intervals ending before ``ts`` (no future overlap possible).

        Returns them as flat columns ``(keys, counts, start_ts, end_ts,
        tids)``.  ``_by_key`` only holds keys with resident intervals, so
        the walk costs one comparison on each such key's oldest end.
        """
        keys: List[str] = []
        counts: List[int] = []
        out_starts: List[int] = []
        out_ends: List[int] = []
        out_tids: List[int] = []
        by_key = self._by_key
        emptied: List[str] = []
        for key, rep in by_key.items():
            if type(rep) is tuple:
                ends, starts, owners = rep
                if ends[0] >= ts:
                    continue
                j = bisect_left(ends, ts)
                out_starts += starts[:j]
                out_ends += ends[:j]
                out_tids += owners[:j]
                if j == len(ends):
                    emptied.append(key)
                else:
                    del ends[:j]
                    del starts[:j]
                    del owners[:j]
            else:
                removed = rep.pop_ending_before(ts)
                if not removed:
                    continue
                j = len(removed)
                for interval in removed:
                    out_starts.append(interval.start)
                    out_ends.append(interval.end)
                    out_tids.append(interval.owner)
            keys.append(key)
            counts.append(j)
        for key in emptied:
            del by_key[key]
        self._n_intervals -= len(out_ends)
        return keys, counts, out_starts, out_ends, out_tids

    def merge(self, columns: IntervalColumns) -> None:
        """Re-insert previously evicted intervals (reload-on-demand)."""
        keys, counts, starts, ends, tids = columns
        add = self.add
        lo = 0
        for key, count in zip(keys, counts):
            hi = lo + count
            for row in range(lo, hi):
                add(key, starts[row], ends[row], tids[row])
            lo = hi

    def scan_step_totals(self) -> Tuple[int, int]:
        """Summed ``(scan_steps, gc_scan_steps)`` over live promoted keys.

        Only keys promoted to an :class:`IntervalIndex` maintain scan
        counters (the small-rep fast path bisects flat lists and counts
        nothing); eviction never demotes a promoted key, so the live sum
        is cumulative for every key still promoted.  Observability-path
        only — an O(promoted keys) walk, never on ingest.
        """
        scan = 0
        gc_scan = 0
        for rep in self._by_key.values():
            if type(rep) is not tuple:
                scan += rep.scan_steps
                gc_scan += rep.gc_scan_steps
        return scan, gc_scan


class ExtReadIndex:
    """Per-key external reads indexed by snapshot point.

    Each entry maps ``snapshot_ts`` to its readers: a single
    ``(tid, actual_value)`` pair in the overwhelmingly common
    one-reader-per-snapshot case, promoted to a *list* of pairs when
    distinct transactions share a snapshot point (concurrent readers
    handed the same database snapshot all carry the same ``start_ts``).
    The promotion matters for correctness — storing only one reader per
    snapshot would let one reader clobber another at insertion, and
    finalizing one reader would evict the others from step-③ re-checking
    (silently dropped re-checks, i.e. missed EXT violations) — while the
    pair fast path matters for the hot path: the batch kernel adds one
    entry per external read, and allocating a one-element list per read
    was a measurable share of step ①.

    For Aion (SI) the snapshot point is the reader's ``start_ts``; for
    Aion-SER it is the reader's ``commit_ts``.  Entries are removed
    per-reader when that read's EXT verdict is finalized by timeout —
    finalized reads are never re-checked (Algorithm 3, lines 40–41),
    which keeps the index small.

    Like :class:`VersionedFrontier`, keys are adaptive: ``_by_key[key]``
    is a ``(ts_list, readers_list)`` pair of plain parallel lists while
    the key holds at most ``_SMALL_MAX`` distinct snapshot points, and is
    promoted to a :class:`SortedMap` beyond that.  Finalization churn —
    add on arrival, remove on timeout — stays on the C-speed bisect path
    for the overwhelming majority of keys.
    """

    __slots__ = ("_by_key", "_n_reads")

    def __init__(self) -> None:
        self._by_key: Dict[str, Any] = {}
        self._n_reads = 0

    def __len__(self) -> int:
        return self._n_reads

    def add(self, key: str, snapshot_ts: int, tid: int, actual: Any) -> None:
        pair = (tid, actual)
        index = self._by_key.get(key)
        if index is None:
            self._by_key[key] = ([snapshot_ts], [pair])
            self._n_reads += 1
            return
        if type(index) is tuple:
            ts_list, readers_list = index
            j = bisect_left(ts_list, snapshot_ts)
            if j < len(ts_list) and ts_list[j] == snapshot_ts:
                entry = readers_list[j]
                if type(entry) is list:
                    entry.append(pair)
                else:
                    readers_list[j] = [entry, pair]
            else:
                ts_list.insert(j, snapshot_ts)
                readers_list.insert(j, pair)
                if len(ts_list) > _SMALL_MAX:
                    self._by_key[key] = SortedMap._from_sorted(ts_list, readers_list)
            self._n_reads += 1
            return
        # Single-descent get-or-insert: a fresh snapshot point stores the
        # pair itself; a collision promotes the entry to a reader list.
        got = index.setdefault(snapshot_ts, pair)
        if got is not pair:
            if type(got) is list:
                got.append(pair)
            else:
                index[snapshot_ts] = [got, pair]
        self._n_reads += 1

    def remove(self, key: str, snapshot_ts: int, tid: int) -> None:
        """Drop ``tid``'s read of ``key`` at ``snapshot_ts``; other readers
        sharing the snapshot point stay indexed.  Idempotent."""
        index = self._by_key.get(key)
        if index is None:
            return
        if type(index) is tuple:
            ts_list, readers_list = index
            j = bisect_left(ts_list, snapshot_ts)
            if j == len(ts_list) or ts_list[j] != snapshot_ts:
                return
            entry = readers_list[j]
            if type(entry) is list:
                for position, (reader_tid, _actual) in enumerate(entry):
                    if reader_tid == tid:
                        del entry[position]
                        self._n_reads -= 1
                        if len(entry) == 1:
                            readers_list[j] = entry[0]
                        return
                return
            if entry[0] == tid:
                del ts_list[j]
                del readers_list[j]
                self._n_reads -= 1
            return
        entry = index.get(snapshot_ts)
        if entry is None:
            return
        if type(entry) is list:
            for position, (reader_tid, _actual) in enumerate(entry):
                if reader_tid == tid:
                    del entry[position]
                    self._n_reads -= 1
                    if len(entry) == 1:
                        index[snapshot_ts] = entry[0]
                    return
            return
        if entry[0] == tid:
            del index[snapshot_ts]
            self._n_reads -= 1

    def clear(self) -> None:
        """Drop every indexed read at once.

        The end-of-stream flush finalizes *all* pending verdicts in one
        batch; when the caller knows the batch covers the whole index
        (checked against ``len(self)``), clearing wholesale replaces one
        filtered rebuild per key.
        """
        self._by_key.clear()
        self._n_reads = 0

    def remove_batch(self, items: List[Tuple[str, int, int]]) -> None:
        """Drop a batch of ``(key, snapshot_ts, tid)`` reads.

        The grouped form of :meth:`remove` used when a timer expiry
        finalizes many verdicts at once; semantics are per-item identical.
        Removals are grouped per key, and a key losing a large fraction of
        its indexed reads (the shape of an end-of-stream flush, where a
        deadline finalizes *every* read of a key at once) is rebuilt in a
        single filtered pass instead of paying one descent-and-splice per
        removed read.
        """
        if not items:
            return
        by_key: Dict[str, List[Tuple[int, int]]] = {}
        for key, snapshot_ts, tid in items:
            group = by_key.get(key)
            if group is None:
                by_key[key] = [(snapshot_ts, tid)]
            else:
                group.append((snapshot_ts, tid))
        remove = self.remove
        for key, group in by_key.items():
            index = self._by_key.get(key)
            if index is None:
                continue
            if type(index) is tuple or len(group) * 4 < len(index):
                for snapshot_ts, tid in group:
                    remove(key, snapshot_ts, tid)
                continue
            # Bulk path: one filtered walk of the key's map.  ``len(index)``
            # counts distinct snapshot points (a lower bound on reads), so
            # this triggers only when most of the key is going away.
            doomed = set(group)
            kept_ts: List[int] = []
            kept_readers: List[Any] = []
            removed = 0
            for snapshot_ts, entry in index.items():
                if type(entry) is list:
                    survivors = [
                        pair for pair in entry if (snapshot_ts, pair[0]) not in doomed
                    ]
                    removed += len(entry) - len(survivors)
                    if survivors:
                        kept_ts.append(snapshot_ts)
                        kept_readers.append(
                            survivors[0] if len(survivors) == 1 else survivors
                        )
                elif (snapshot_ts, entry[0]) in doomed:
                    removed += 1
                else:
                    kept_ts.append(snapshot_ts)
                    kept_readers.append(entry)
            self._n_reads -= removed
            if not kept_ts:
                del self._by_key[key]
            elif len(kept_ts) <= _SMALL_MAX:
                self._by_key[key] = (kept_ts, kept_readers)
            else:
                self._by_key[key] = SortedMap._from_sorted(kept_ts, kept_readers)

    def affected_by(
        self,
        key: str,
        version_ts: int,
        next_version_ts: Optional[int],
        *,
        upper_inclusive: bool = False,
    ) -> Iterator[Tuple[int, int, Any]]:
        """Reads whose visible version becomes the one at ``version_ts``.

        Yields ``(snapshot_ts, tid, actual_value)`` for every reader with
        a snapshot point in ``[version_ts, next_version_ts)`` — or
        ``(version_ts, next_version_ts]`` with ``upper_inclusive=True``,
        the bound needed by Aion-SER where a reader at exactly the next
        version's commit timestamp is that version's own writer and sees
        the new version.
        """
        return iter(
            self.collect_affected(
                key, version_ts, next_version_ts, None, upper_inclusive=upper_inclusive
            )
        )

    def collect_affected(
        self,
        key: str,
        version_ts: int,
        next_version_ts: Optional[int],
        exclude_tid: Optional[int],
        *,
        upper_inclusive: bool = False,
    ) -> List[Tuple[int, int, Any]]:
        """:meth:`affected_by` as a list, without the reads of
        ``exclude_tid`` (the writer never re-checks its own read; ``None``
        excludes nobody).

        The batch kernel's probe pass materializes re-check sets anyway
        (verdict application happens in a later pass); returning a plain
        list skips the generator frames, and folding in the
        ``reader_tid == writer_tid`` exclusion saves the per-row branch at
        the call sites.  Returns ``[]`` when no reader is affected.
        """
        index = self._by_key.get(key)
        if index is None:
            return []
        out: List[Tuple[int, int, Any]] = []
        if type(index) is tuple:
            ts_list, readers_list = index
            lo = bisect_left(ts_list, version_ts)
            if next_version_ts is None:
                hi = len(ts_list)
            elif upper_inclusive:
                hi = bisect_right(ts_list, next_version_ts)
            else:
                hi = bisect_left(ts_list, next_version_ts)
            for j in range(lo, hi):
                entry = readers_list[j]
                if type(entry) is list:
                    snapshot_ts = ts_list[j]
                    for tid, actual in entry:
                        if tid != exclude_tid:
                            out.append((snapshot_ts, tid, actual))
                elif entry[0] != exclude_tid:
                    out.append((ts_list[j], entry[0], entry[1]))
            return out
        got = index.range_lists(
            version_ts, next_version_ts, inclusive=(True, upper_inclusive)
        )
        if got is None:
            return out
        range_ts, range_entries = got
        for j, entry in enumerate(range_entries):
            if type(entry) is list:
                snapshot_ts = range_ts[j]
                for tid, actual in entry:
                    if tid != exclude_tid:
                        out.append((snapshot_ts, tid, actual))
            elif entry[0] != exclude_tid:
                out.append((range_ts[j], entry[0], entry[1]))
        return out


# ----------------------------------------------------------------------
# Columnar frontier-probe kernel
# ----------------------------------------------------------------------

class _NoIntervals:
    """Stands in for ``WriterIntervals._by_key`` when a checker keeps no
    writer intervals (Aion-SER checks no NOCONFLICT and hands
    :func:`probe_columns` no :class:`WriterIntervals`): every key maps
    to this same promoted-looking index, in which step ② finds no
    overlap and records nothing."""

    __slots__ = ()

    def get(self, key: str) -> "_NoIntervals":
        return self

    def overlap_add(self, start_ts: int, commit_ts: int, tid: int) -> None:
        return None


_NO_INTERVALS = _NoIntervals()


def probe_columns(
    frontier: "VersionedFrontier",
    writers: Optional["WriterIntervals"],
    ext_reads: "ExtReadIndex",
    key_streams: Dict[str, List[int]],
    r_ts: List[int],
    r_tids: List[int],
    r_vals: List[Any],
    w_vals: List[Any],
    w_starts: List[int],
    w_cts: List[int],
    w_tids: List[int],
    optimized: bool,
    bottom: Any,
    results: Optional[Tuple[List[Any], List[Any], List[Any]]] = None,
    strict: bool = False,
) -> Tuple[List[Any], List[Optional[List[Tuple[int, int]]]], List[Optional[list]]]:
    """Execute the batch kernel's frontier-probe pass over per-key streams.

    ``key_streams`` maps each key to its arrival-ordered op stream:
    ``index << 1`` encodes the external read at flat position ``index``,
    ``index << 1 | 1`` the write at that position.  Per read (step ①) the
    visibility floor at the read's snapshot point is resolved and the
    read is indexed; per write, step ② queries and extends the key's
    writer intervals and step ③ inserts the version and sweeps the reads
    whose floor it became, all in stream order.

    The pass lives here rather than in a checker because this layer
    owns all three structures: each key's representation is fetched
    **once per stream** instead of once per op, and the adaptive small-
    key fast paths (plain parallel lists) are applied inline — dropping
    one dict descent and several method frames per operation (see the
    module docstring for the public methods that mirror them).

    The two isolation levels differ in three places, all bound before
    the loop.  SI (``strict=False``): a read sees the greatest version
    at or below its snapshot point, and a version inserted at ``cts``
    with successor ``next`` becomes the floor of the reads in
    ``[cts, next)``.  SER (``strict=True``, §VI): the snapshot point is
    the reader's own commit timestamp, so the floor is the greatest
    version *strictly below* it and the sweep closes at its upper end,
    ``[cts, next]`` — the reader committing exactly at ``next`` wrote
    that version and reads below itself.  SER also keeps no writer
    intervals: ``writers`` is ``None`` and step ② does nothing.  The
    ablation (``optimized=False``) is defined for SI only.

    Returns ``(r_expected, w_conflicts, w_reevals)``: the visibility
    floor per read, and per write slot the NOCONFLICT hits and affected
    re-check rows (``None`` when empty).  A caller that splits one
    batch's columns over several structure sets (the shards of
    :class:`~repro.core.sharded.ShardedAion`, each handed its own keys'
    streams) passes the shared ``results`` arrays, pre-filled with
    ``None``, and every call fills only the slots its streams name; the
    structures' size counters advance by the ops actually walked.
    """
    if results is None:
        results = ([None] * len(r_ts), [None] * len(w_cts), [None] * len(w_cts))
    r_expected, w_conflicts, w_reevals = results

    if strict:
        if not optimized:
            raise ValueError("the unoptimized re-check ablation is defined for SI only")
        floor_end = bisect_left
        floor_item = SortedMap.lower_item
        sweep_end = bisect_right
    else:
        floor_end = bisect_right
        floor_item = SortedMap.floor_item
        sweep_end = bisect_left
    f_by_key = frontier._by_key
    f_multi_add = frontier._multi.add
    e_by_key = ext_reads._by_key
    w_by_key = _NO_INTERVALS if writers is None else writers._by_key
    value_at = frontier.value_at
    collect_affected = ext_reads.collect_affected
    new_versions = 0
    overwrites = 0

    for key, stream in key_streams.items():
        fv = f_by_key.get(key)
        ev = e_by_key.get(key)
        iv = w_by_key.get(key)
        for code in stream:
            index = code >> 1
            if code & 1:
                # ---- write: step ② then step ③.
                commit_ts = w_cts[index]
                tid = w_tids[index]
                # Inline twin of WriterIntervals.overlap_add.
                start_ts = w_starts[index]
                if iv is None:
                    iv = w_by_key[key] = ([commit_ts], [start_ts], [tid])
                elif type(iv) is tuple:
                    ends, i_starts, owners = iv
                    hits = None
                    for i in range(bisect_left(ends, start_ts), len(ends)):
                        if i_starts[i] <= commit_ts:
                            owner = owners[i]
                            if owner != tid:
                                if hits is None:
                                    hits = w_conflicts[index] = []
                                hits.append((owner, ends[i]))
                    if commit_ts >= ends[-1]:
                        ends.append(commit_ts)
                        i_starts.append(start_ts)
                        owners.append(tid)
                    else:
                        j = bisect_right(ends, commit_ts)
                        ends.insert(j, commit_ts)
                        i_starts.insert(j, start_ts)
                        owners.insert(j, tid)
                    if len(ends) > _SMALL_MAX:
                        iv = w_by_key[key] = WriterIntervals._promote(
                            ends, i_starts, owners
                        )
                else:
                    hits = iv.overlap_add(start_ts, commit_ts, tid)
                    if hits:
                        w_conflicts[index] = hits
                # Inline twin of insert_and_next_ts.
                payload = (w_vals[index], tid)
                if fv is None:
                    fv = f_by_key[key] = ([commit_ts], [payload])
                    new_versions += 1
                    nxt_ts = None
                elif type(fv) is tuple:
                    timestamps, payloads = fv
                    j = bisect_left(timestamps, commit_ts)
                    n = len(timestamps)
                    if j < n and timestamps[j] == commit_ts:
                        payloads[j] = payload
                        overwrites += 1
                    else:
                        timestamps.insert(j, commit_ts)
                        payloads.insert(j, payload)
                        new_versions += 1
                        n += 1
                        if n == 2:
                            f_multi_add(key)
                    nxt = j + 1
                    nxt_ts = timestamps[nxt] if nxt < n else None
                    if n > _SMALL_MAX:
                        fv = f_by_key[key] = SortedMap._from_sorted(
                            timestamps, payloads
                        )
                else:
                    was_present, successor = fv.set_and_higher(commit_ts, payload)
                    if was_present:
                        overwrites += 1
                    else:
                        new_versions += 1
                    nxt_ts = None if successor is None else successor[0]
                if optimized:
                    # Inline twin of collect_affected for the small rep
                    # (``ev`` is already in hand).
                    if ev is None:
                        pass
                    elif type(ev) is tuple:
                        ts_list, readers_list = ev
                        lo = bisect_left(ts_list, commit_ts)
                        hi = (
                            len(ts_list)
                            if nxt_ts is None
                            else sweep_end(ts_list, nxt_ts)
                        )
                        if lo < hi:
                            out = []
                            for j in range(lo, hi):
                                entry = readers_list[j]
                                if type(entry) is list:
                                    sts = ts_list[j]
                                    for reader_tid, actual in entry:
                                        if reader_tid != tid:
                                            out.append((sts, reader_tid, actual))
                                elif entry[0] != tid:
                                    out.append((ts_list[j], entry[0], entry[1]))
                            if out:
                                w_reevals[index] = out
                    else:
                        affected = collect_affected(
                            key, commit_ts, nxt_ts, tid, upper_inclusive=strict
                        )
                        if affected:
                            w_reevals[index] = affected
                else:
                    # Ablation: every pending read of the key against a
                    # fresh visibility query (no range cutoff); the
                    # expected value must be resolved *here*, at this
                    # point of the key's stream.
                    affected = collect_affected(key, 0, None, tid)
                    if affected:
                        w_reevals[index] = [
                            (value_at(key, sts, bottom), reader_tid, actual)
                            for sts, reader_tid, actual in affected
                        ]
            else:
                # ---- read: step ①, inline twins of value_at + add.
                snapshot_ts = r_ts[index]
                if fv is None:
                    r_expected[index] = bottom
                elif type(fv) is tuple:
                    timestamps = fv[0]
                    j = floor_end(timestamps, snapshot_ts) - 1
                    r_expected[index] = fv[1][j][0] if j >= 0 else bottom
                else:
                    item = floor_item(fv, snapshot_ts)
                    r_expected[index] = bottom if item is None else item[1][0]
                pair = (r_tids[index], r_vals[index])
                if ev is None:
                    ev = e_by_key[key] = ([snapshot_ts], [pair])
                elif type(ev) is tuple:
                    ts_list, readers_list = ev
                    j = bisect_left(ts_list, snapshot_ts)
                    if j < len(ts_list) and ts_list[j] == snapshot_ts:
                        entry = readers_list[j]
                        if type(entry) is list:
                            entry.append(pair)
                        else:
                            readers_list[j] = [entry, pair]
                    else:
                        ts_list.insert(j, snapshot_ts)
                        readers_list.insert(j, pair)
                        if len(ts_list) > _SMALL_MAX:
                            ev = e_by_key[key] = SortedMap._from_sorted(
                                ts_list, readers_list
                            )
                else:
                    got = ev.setdefault(snapshot_ts, pair)
                    if got is not pair:
                        if type(got) is list:
                            got.append(pair)
                        else:
                            ev[snapshot_ts] = [got, pair]

    # Ops actually walked — the columns may be shared with other calls.
    # Every write either adds a version or overwrites one, so the common
    # path pays no second per-op counter.
    n_writes = new_versions + overwrites
    frontier._n_versions += new_versions
    if writers is not None:
        writers._n_intervals += n_writes
    ext_reads._n_reads += sum(map(len, key_streams.values())) - n_writes
    return results


# ----------------------------------------------------------------------
# deep_sizeof fast paths
#
# The memory sampler runs inside capped-memory experiments, so the flat
# layouts above — small-key parallel lists — are sized inline rather
# than element-by-element through the generic memoized walk.  Each sizer
# returns the bytes beyond ``sys.getsizeof(obj)`` and pushes only rich
# sub-objects (SortedMap, IntervalIndex, history values) back onto the
# walk's stack; the frontier's multi-version key set aliases the index's
# own keys, which are deliberately not re-counted (see the tolerance
# note in :mod:`repro.util.sizeof`).
# ----------------------------------------------------------------------


def _frontier_bytes(frontier: VersionedFrontier, stack: List[Any]) -> int:
    getsizeof = sys.getsizeof
    by_key = frontier._by_key
    total = getsizeof(by_key) + getsizeof(frontier._multi)
    for key, versions in by_key.items():
        total += getsizeof(key)
        if type(versions) is tuple:
            timestamps, payloads = versions
            total += getsizeof(versions) + getsizeof(timestamps) + getsizeof(payloads)
            total += sum(map(getsizeof, timestamps))
            for payload in payloads:  # (value, tid)
                total += getsizeof(payload) + getsizeof(payload[1])
                stack.append(payload[0])
        else:
            stack.append(versions)
    return total


def _writer_intervals_bytes(writers: WriterIntervals, stack: List[Any]) -> int:
    getsizeof = sys.getsizeof
    by_key = writers._by_key
    total = getsizeof(by_key)
    for key, rep in by_key.items():
        total += getsizeof(key)
        if type(rep) is tuple:
            ends, starts, owners = rep
            total += getsizeof(rep) + getsizeof(ends) + getsizeof(starts) + getsizeof(owners)
            total += sum(map(getsizeof, ends))
            total += sum(map(getsizeof, starts))
            total += sum(map(getsizeof, owners))
        else:
            stack.append(rep)  # IntervalIndex has its own chunked fast path
    return total


def _ext_reads_bytes(ext_reads: ExtReadIndex, stack: List[Any]) -> int:
    getsizeof = sys.getsizeof
    by_key = ext_reads._by_key
    total = getsizeof(by_key)
    for key, index in by_key.items():
        total += getsizeof(key)
        if type(index) is tuple:
            ts_list, readers_list = index
            total += getsizeof(index) + getsizeof(ts_list) + getsizeof(readers_list)
            total += sum(map(getsizeof, ts_list))
            for entry in readers_list:  # (tid, actual) pair or list of pairs
                total += getsizeof(entry)
                if type(entry) is list:
                    for pair in entry:
                        total += getsizeof(pair) + getsizeof(pair[0])
                        stack.append(pair[1])
                else:
                    total += getsizeof(entry[0])
                    stack.append(entry[1])
        else:
            stack.append(index)
    return total


register_sizer(VersionedFrontier, _frontier_bytes)
register_sizer(WriterIntervals, _writer_intervals_bytes)
register_sizer(ExtReadIndex, _ext_reads_bytes)
