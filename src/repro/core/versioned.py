"""Timestamp-versioned structures backing Aion (Algorithm 3).

The paper extends Chronos's ``frontier`` and ``ongoing`` maps to
``frontier_ts`` and ``ongoing_ts``, "versioned by timestamps and
support[ing] timestamp-based search, returning the latest version before a
given timestamp".  Materializing a full map image per timestamp would be
quadratic; these classes store the equivalent information *per key*:

- :class:`VersionedFrontier` — for every key, its committed writes
  ordered by commit timestamp, each with its writer's start timestamp.
  It is both of the paper's maps, because both are views of one per-key
  sequence of writes: ``frontier_ts[ts][k]`` is the greatest entry with
  ``commit_ts <= ts`` (:meth:`VersionedFrontier.latest_at`; Aion-SER
  reads the greatest one strictly below, :func:`probe_columns`,
  ``strict``), and ``ongoing_ts`` is the entries' lifetimes
  ``[start_ts, commit_ts]``, so NOCONFLICT re-checking (step ②) is an
  overlap query on the same lists.
- :class:`ExtReadIndex` — for every key, the *readers* (tids) of the
  pending external reads indexed by their snapshot point, so EXT
  re-checking (step ③) touches only reads whose visible version
  actually changed.  What a reader observed is not here: it lives once,
  in the reader's :class:`~repro.core.ext_status.ExtStatusTracker`
  record, which also decides every re-check.
- :class:`WriterIntervals` — the overlap query as a full scan over a
  separate interval list.  No checker holds one: it is the reference
  the tests hold the frontier's shortcut to, and what the ladder
  benchmark's ``versioned.overlap_add_ops_s`` rung times.

Each keeps every key in plain parallel lists, one list per field and no
object per entry, whatever the key's size.  ``_by_key[key]`` is:

- frontier: ``(commit_ts, starts, values, tids)`` sorted by commit
  timestamp, equal timestamps in insertion order — so the floor
  (``bisect_right - 1``) is the last writer at that timestamp, and a
  write's NOCONFLICT conflicts are listed by ascending end, equal ends
  in arrival order;
- read index: ``(snapshot_ts, readers)`` sorted by snapshot point, a
  reader being a tid or, for transactions sharing the snapshot, a
  ``list`` of tids.

**Disjointness.**  A key's intervals are usually pairwise disjoint:
writers of one key rarely overlap, and when they do the history has a
NOCONFLICT violation.  Sorted by end, disjoint intervals are sorted by
start as well (each starts after the previous one ends).  So a write
``[start_ts, commit_ts]`` inserted at position ``j`` overlaps some entry
iff it overlaps one of its two neighbours there: the entries before
``j`` end at or before ``commit_ts``, the latest of them at ``j - 1``,
and the entries from ``j`` on start at or after ``starts[j]``.
(Equivalently: with ``b = bisect_left(commit_ts_list, start_ts)``, the
first entry ending at or after the write's start, ``starts[b] >
commit_ts`` proves that nothing overlaps.)  The write pays one or two
comparisons and no scan; at the tail, where ``j`` is the list's end, it
pays one comparison and no bisect.  The frontier keeps a ``_tangled``
key set for the keys where the argument does not hold: a key enters it
when an overlap scan runs on it (a conflict, or a retransmitted tid
meeting its own entry) and when an insert or a merge lands an entry
overlapping another, and leaves it only when eviction leaves it one
entry.  A tangled key's writes scan every entry that ends at or after
their start.  Only the SI branch of the probe asks the question and
keeps the set: the strict (SER) branch neither queries overlaps nor
marks keys, so a frontier is written by one of the two.

Every timestamp column here arrives near-sorted, so an insert lands at
or near the tail and its ``list.insert`` moves a few entries whatever
the key's size.  What a tangled hot key pays is the overlap scan.

The frontier supports eviction below a GC-safe timestamp and re-merging
of reloaded segments (the ``GARBAGE COLLECT`` / reload-on-demand
protocol); pending reads are never evicted — a read leaves the index
when its verdict is finalized.

The checkers read and write both structures through one batched entry
point, :func:`probe_columns`, which works on the lists inline and tries
the tail of each list first: arrivals come close to commit order, so a
write or a reader past the newest is appended without a bisect, a
snapshot past the newest version takes it as its floor, and a write
skips the reader sweep when no snapshot reaches it and the overlap
query when it starts after every writer ends.  Each tail test falls
back to the bisect, and those on the read index also guard against an
empty list (finalization can empty a key's read index; eviction never
empties a frontier key).  The one-query methods that stay public beside
it give the same answers per call — they bisect without trying the
tail — and must be kept in lockstep with its inline branches
(``tests/test_versioned.py`` holds both to the same answers, and the
probe's conflicts to :meth:`WriterIntervals.overlap_add`, on random and
on near-sorted streams, on short keys and on hot ones):

- ``insert_and_next_ts`` (and ``insert``) — the write's insert, with the
  same ``_tangled`` rule; its four-argument form, whose start defaults
  to the commit timestamp (a zero-length interval), is what the ladder
  benchmark's ``versioned`` rung times;
- ``value_at`` — the floor, which the ablation's sweep resolves;
- ``ExtReadIndex.add`` and ``affected_by`` / ``collect_affected`` — the
  reader insert and the sweep (the last is also the ablation's);
- ``latest_at`` — how tests inspect state.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right
from operator import lt
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.util.sizeof import register_sizer

__all__ = [
    "FrontierVersion",
    "VersionColumns",
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
VersionColumns = Tuple[  # (keys, counts, commit_ts, start_ts, values, tids)
    List[str], List[int], List[int], List[int], List[Any], List[int]
]


def empty_columns() -> VersionColumns:
    """Columns holding nothing."""
    return [], [], [], [], [], []


def _disjoint(commits: List[int], starts: List[int], last: int) -> bool:
    """Whether entries ``0..last`` of one key's lists are pairwise
    disjoint: sorted by end, that is each one ending before the next
    one starts."""
    return all(map(lt, commits[:last], starts[1 : last + 1]))


class VersionedFrontier:
    """Per-key committed writes ordered by commit timestamp.

    ``_by_key`` maps a key to a ``(commit_ts, starts, values, tids)``
    tuple of parallel lists sorted by commit timestamp, equal ones in
    insertion order: four list slots per write, no object, and every
    query one C-speed bisect.
    """

    __slots__ = ("_by_key", "_n_versions", "_multi", "_tangled")

    def __init__(self) -> None:
        self._by_key: Dict[str, Tuple[List[int], List[int], List[Any], List[int]]] = {}
        self._n_versions = 0
        #: Keys holding two or more entries, added on the 1→2 insert and
        #: dropped when eviction leaves one.  Eviction always keeps a
        #: key's newest evictable entry, so only these keys can lose
        #: anything: :meth:`evict_below` walks this set, never the whole
        #: index.
        self._multi: set = set()
        #: Keys whose intervals may overlap (module docstring): the
        #: overlap query scans them; on every other key one comparison
        #: answers it.
        self._tangled: set = set()

    def __len__(self) -> int:
        return self._n_versions

    def insert(
        self, key: str, commit_ts: int, value: Any, tid: int, start_ts: Optional[int] = None
    ) -> None:
        """Record that ``tid``, started at ``start_ts`` (default: at
        ``commit_ts``), committed ``value`` for ``key`` at ``commit_ts``."""
        self.insert_and_next_ts(key, commit_ts, value, tid, start_ts)

    def latest_at(self, key: str, ts: int) -> Optional[FrontierVersion]:
        """Greatest version with ``commit_ts <= ts`` (SI visibility, Def. 6)."""
        rep = self._by_key.get(key)
        if rep is None:
            return None
        commits, _, values, tids = rep
        j = bisect_right(commits, ts) - 1
        if j < 0:
            return None
        return (commits[j], values[j], tids[j])

    def value_at(self, key: str, ts: int, default: Any = None) -> Any:
        """The visible *value* at ``ts``, or ``default`` for no version.

        Equivalent to ``latest_at(key, ts)[1]`` without materializing the
        version tuple — what the ablation's sweep asks per pending read.
        """
        rep = self._by_key.get(key)
        if rep is None:
            return default
        j = bisect_right(rep[0], ts) - 1
        if j < 0:
            return default
        return rep[2][j]

    def insert_and_next_ts(
        self,
        key: str,
        commit_ts: int,
        value: Any,
        tid: int,
        start_ts: Optional[int] = None,
    ) -> Optional[int]:
        """Insert a write after every entry committed at or before it and
        return the commit timestamp of the one overwriting it (``None``
        when it is the newest), in one descent.

        Step ③ needs just that next-overwrite bound for the affected-
        reader sweep, so no successor version tuple is built.  The key
        becomes tangled when the write's ``[start_ts, commit_ts]`` lands
        overlapping an entry; ``start_ts`` defaults to ``commit_ts``.
        """
        if start_ts is None:
            start_ts = commit_ts
        rep = self._by_key.get(key)
        self._n_versions += 1
        if rep is None:
            self._by_key[key] = ([commit_ts], [start_ts], [value], [tid])
            return None
        commits, starts, values, tids = rep
        j = bisect_right(commits, commit_ts)
        if key not in self._tangled and (
            (j < len(commits) and starts[j] <= commit_ts) or (j > 0 and commits[j - 1] >= start_ts)
        ):
            self._tangled.add(key)
        commits.insert(j, commit_ts)
        starts.insert(j, start_ts)
        values.insert(j, value)
        tids.insert(j, tid)
        if len(commits) == 2:
            self._multi.add(key)
        j += 1
        return commits[j] if j < len(commits) else None

    def evict_below(self, ts: int) -> VersionColumns:
        """Remove entries with ``commit_ts < ts``, keeping one per key.

        What stays is every entry with ``commit_ts >= ts`` — an interval
        a write starting above ``ts`` can still overlap — plus each key's
        newest entry at or below ``ts``, still the visible version for
        future snapshots above ``ts`` (the paper's GC is "conservative"
        for the same reason).  Returns the evicted entries as flat
        columns ``(keys, counts, commit_ts, start_ts, values, tids)``
        for spilling.

        Only keys holding two or more entries are looked at, each decided
        by its two oldest commit timestamps — a cycle never walks the
        index.  A key left with one entry is no longer tangled.
        """
        keys, counts, out_commits, out_starts, out_values, out_tids = columns = empty_columns()
        by_key = self._by_key
        settled: List[str] = []
        for key in self._multi:
            commits, starts, values, tids = by_key[key]
            if commits[1] > ts or commits[0] >= ts:
                continue  # the oldest is the newest at or below ts, or not below it
            cut = bisect_right(commits, ts) - 1
            if commits[cut] == ts:
                cut = bisect_left(commits, ts, 0, cut)
            out_commits += commits[:cut]
            out_starts += starts[:cut]
            out_values += values[:cut]
            out_tids += tids[:cut]
            del commits[:cut]
            del starts[:cut]
            del values[:cut]
            del tids[:cut]
            if len(commits) == 1:
                settled.append(key)
            keys.append(key)
            counts.append(cut)
        self._multi.difference_update(settled)
        self._tangled.difference_update(settled)
        self._n_versions -= len(out_commits)
        return columns

    def merge(self, columns: VersionColumns) -> None:
        """Re-insert previously evicted entries (reload-on-demand).

        A reloaded entry arrived before every resident entry with its
        commit timestamp, so it goes in *before* them; merging a store's
        segments newest first (:meth:`~repro.core.spill.SpillingGc.
        _reload_below`) therefore restores each key's insertion order.
        A key whose merged entries overlap becomes tangled.
        """
        keys, counts, commits_in, starts_in, values_in, tids_in = columns
        by_key = self._by_key
        tangled = self._tangled
        lo = 0
        for key, count in zip(keys, counts):
            hi = lo + count
            rep = by_key.get(key)
            if rep is None:
                rep = by_key[key] = (
                    commits_in[lo:hi], starts_in[lo:hi], values_in[lo:hi], tids_in[lo:hi]
                )
                checked = count - 1
            else:
                commits, starts, values, tids = rep
                if commits_in[hi - 1] <= commits[0]:
                    # The common shape: everything reloaded is older.
                    commits[:0] = commits_in[lo:hi]
                    starts[:0] = starts_in[lo:hi]
                    values[:0] = values_in[lo:hi]
                    tids[:0] = tids_in[lo:hi]
                    checked = count
                else:
                    for row in range(hi - 1, lo - 1, -1):
                        j = bisect_left(commits, commits_in[row])
                        commits.insert(j, commits_in[row])
                        starts.insert(j, starts_in[row])
                        values.insert(j, values_in[row])
                        tids.insert(j, tids_in[row])
                    checked = len(commits) - 1
            if len(rep[0]) > 1:
                self._multi.add(key)
            if key not in tangled and not _disjoint(rep[0], rep[1], checked):
                tangled.add(key)
            self._n_versions += count
            lo = hi


def _insert_interval(
    rep: Tuple[List[int], List[int], List[int]], start_ts: int, commit_ts: int, tid: int
) -> None:
    """Insert an interval into a key's ``(ends, starts, owners)`` lists,
    after every interval ending at or before ``commit_ts``."""
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


class WriterIntervals:
    """Per-key writer lifetimes answering the overlap query by a full scan.

    ``_by_key[key]`` holds an ``(ends, starts, owners)`` triple of plain
    parallel lists sorted by interval *end* (= ``commit_ts``), an equal
    end going after the ones already there.  An overlap query for
    ``[start, end]`` bisects the first end reaching ``start`` and scans
    the whole suffix from there, so it lists its hits by ascending end,
    equal ends in insertion order — the order :func:`probe_columns`
    reports them in, which the tests hold it to.  No checker holds one
    (the frontier answers the query); see the module docstring.
    """

    __slots__ = ("_by_key", "_n_intervals")

    def __init__(self) -> None:
        self._by_key: Dict[str, Tuple[List[int], List[int], List[int]]] = {}
        self._n_intervals = 0

    def __len__(self) -> int:
        return self._n_intervals

    def add(self, key: str, start_ts: int, commit_ts: int, tid: int) -> None:
        rep = self._by_key.get(key)
        if rep is None:
            self._by_key[key] = ([commit_ts], [start_ts], [tid])
        else:
            _insert_interval(rep, start_ts, commit_ts, tid)
        self._n_intervals += 1

    def overlap_add(
        self, key: str, start_ts: int, commit_ts: int, tid: int
    ) -> List[Tuple[int, int]]:
        """Fused overlap query + insert.

        Returns ``(owner_tid, owner_commit_ts)`` pairs for every interval
        of ``key`` overlapping ``[start_ts, commit_ts]`` excluding ``tid``
        itself, then records ``tid``'s own interval (:meth:`add`) in the
        same index descent.
        """
        rep = self._by_key.get(key)
        hits: List[Tuple[int, int]] = []
        if rep is None:
            self._by_key[key] = ([commit_ts], [start_ts], [tid])
        else:
            ends, starts, owners = rep
            for i in range(bisect_left(ends, start_ts), len(ends)):
                if starts[i] <= commit_ts:
                    owner = owners[i]
                    if owner != tid:
                        hits.append((owner, ends[i]))
            _insert_interval(rep, start_ts, commit_ts, tid)
        self._n_intervals += 1
        return hits


class ExtReadIndex:
    """Per-key pending external reads indexed by snapshot point.

    Each entry maps ``snapshot_ts`` to its reader: the reader's tid (an
    ``int``) in the overwhelmingly common one-reader-per-snapshot case,
    and a *list* of tids when distinct transactions share a snapshot
    point (concurrent readers handed the same database snapshot all
    carry the same ``start_ts``).  The list matters for correctness — storing only one reader per snapshot would let one
    reader clobber another at insertion, and finalizing one reader would
    evict the others from step-③ re-checking (silently dropped
    re-checks, i.e. missed EXT violations) — while the bare-int fast
    path matters for memory and for the hot path: the batch kernel adds
    one entry per external read and the sweep hands a slice of them
    straight to the verdict walk.  The value a reader observed is not
    stored here; the tracker's record holds it once.

    For Aion (SI) the snapshot point is the reader's ``start_ts``; for
    Aion-SER it is the reader's ``commit_ts``.  Entries are removed
    per-reader when that read's EXT verdict is finalized by timeout —
    finalized reads are never re-checked (Algorithm 3, lines 40–41),
    which keeps the index small.

    ``_by_key[key]`` is a ``(ts_list, readers_list)`` pair of plain
    parallel lists sorted by snapshot point, so finalization churn — add
    on arrival, remove on timeout — is one C-speed bisect per read.  A
    key whose reads are all finalized keeps its two empty lists.
    """

    __slots__ = ("_by_key", "_n_reads")

    def __init__(self) -> None:
        self._by_key: Dict[str, Tuple[List[int], List[Any]]] = {}
        self._n_reads = 0

    def __len__(self) -> int:
        return self._n_reads

    def add(self, key: str, snapshot_ts: int, tid: int, actual: Any = None) -> None:
        """Index ``tid``'s read of ``key`` at ``snapshot_ts``.

        ``actual`` is accepted and not stored: the frozen ladder's
        ``versioned.ext_sweep_reads_s`` rung still passes the observed
        value (ROADMAP item 1(a) drops it).
        """
        index = self._by_key.get(key)
        self._n_reads += 1
        if index is None:
            self._by_key[key] = ([snapshot_ts], [tid])
            return
        ts_list, readers_list = index
        j = bisect_left(ts_list, snapshot_ts)
        if j < len(ts_list) and ts_list[j] == snapshot_ts:
            entry = readers_list[j]
            if type(entry) is list:
                entry.append(tid)
            else:
                readers_list[j] = [entry, tid]
        else:
            ts_list.insert(j, snapshot_ts)
            readers_list.insert(j, tid)

    def remove(self, key: str, snapshot_ts: int, tid: int) -> None:
        """Drop ``tid``'s read of ``key`` at ``snapshot_ts`` (one entry of
        a tid a retransmission indexed twice); other readers sharing the
        snapshot point stay indexed, and a read not there is a no-op."""
        index = self._by_key.get(key)
        if index is None:
            return
        ts_list, readers_list = index
        at = bisect_left(ts_list, snapshot_ts)
        if at == len(ts_list) or ts_list[at] != snapshot_ts:
            return
        entry = readers_list[at]
        if type(entry) is list:
            if tid not in entry:
                return
            entry.remove(tid)
            if len(entry) == 1:
                readers_list[at] = entry[0]
        elif entry == tid:
            del ts_list[at]
            del readers_list[at]
        else:
            return
        self._n_reads -= 1

    def clear(self) -> None:
        """Drop every indexed read at once: the end-of-stream flush
        finalizes *all* pending verdicts, so the owner clears the index
        instead of removing read by read."""
        self._by_key.clear()
        self._n_reads = 0

    def remove_batch(self, items: List[Tuple[str, int, int]]) -> None:
        """:meth:`remove` for each ``(key, snapshot_ts, tid)`` — what a
        timer expiry that finalizes many verdicts at once hands over."""
        remove = self.remove
        for key, snapshot_ts, tid in items:
            remove(key, snapshot_ts, tid)

    def affected_by(
        self,
        key: str,
        version_ts: int,
        next_version_ts: Optional[int],
        *,
        upper_inclusive: bool = False,
    ) -> Iterator[Tuple[int, int]]:
        """Reads whose visible version becomes the one at ``version_ts``.

        Yields ``(snapshot_ts, tid)`` for every reader with a snapshot
        point in ``[version_ts, next_version_ts)`` — or ``(version_ts,
        next_version_ts]`` with ``upper_inclusive=True``, the bound
        needed by Aion-SER where a reader at exactly the next version's
        commit timestamp is that version's own writer and sees the new
        version.
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
    ) -> List[Tuple[int, int]]:
        """:meth:`affected_by` as a list, without the reads of
        ``exclude_tid`` (the writer never re-checks its own read; ``None``
        excludes nobody).  Returns ``[]`` when no reader is affected.

        :func:`probe_columns` answers the optimized sweep with a bare
        slice of tids; this is the ablation's sweep, which needs each
        reader's snapshot point.
        """
        index = self._by_key.get(key)
        if index is None:
            return []
        ts_list, readers_list = index
        lo = bisect_left(ts_list, version_ts)
        if next_version_ts is None:
            hi = len(ts_list)
        elif upper_inclusive:
            hi = bisect_right(ts_list, next_version_ts)
        else:
            hi = bisect_left(ts_list, next_version_ts)
        out: List[Tuple[int, int]] = []
        for snapshot_ts, entry in zip(ts_list[lo:hi], readers_list[lo:hi]):
            if type(entry) is list:
                out += [(snapshot_ts, tid) for tid in entry if tid != exclude_tid]
            elif entry != exclude_tid:
                out.append((snapshot_ts, entry))
        return out


# ----------------------------------------------------------------------
# Columnar frontier-probe kernel
# ----------------------------------------------------------------------

def probe_columns(
    frontier: "VersionedFrontier",
    ext_reads: "ExtReadIndex",
    key_streams: Dict[str, List[int]],
    r_ts: List[int],
    r_tids: List[int],
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
    read is indexed; per write, step ② asks which of the key's writers
    overlap it, step ③ inserts it and sweeps the reads whose floor it
    became, all in stream order and on the frontier's one list set.

    The pass lives here rather than in a checker because this layer
    owns both structures: each key's lists are fetched **once per
    stream** instead of once per op, and worked on inline — dropping
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
    that version and reads below itself.  SER also checks no NOCONFLICT:
    step ② is skipped.  The ablation (``optimized=False``) is defined
    for SI only.

    Returns ``(r_expected, w_conflicts, w_reevals)``: the visibility
    floor per read, and per write slot the NOCONFLICT hits and the
    re-checks the write causes (``None`` when empty) — the affected
    readers' tids, in snapshot order, which the caller re-checks against
    the written value; under the ablation ``(expected, reader_tid)``
    rows.  What a reader observed never passes through here: the
    tracker record holds it.  A caller that splits one
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
        sweep_end = bisect_right
    else:
        floor_end = bisect_right
        sweep_end = bisect_left
    # Integer timestamps: ``snapshot_ts + tail_shift > newest`` is the
    # tail test of either floor — ``>`` strictly below, ``>=`` at or below.
    tail_shift = 0 if strict else 1
    check_overlaps = not strict
    f_by_key = frontier._by_key
    f_multi_add = frontier._multi.add
    tangled = frontier._tangled
    e_by_key = ext_reads._by_key
    value_at = frontier.value_at
    collect_affected = ext_reads.collect_affected
    n_writes = 0

    for key, stream in key_streams.items():
        fv = f_by_key.get(key)
        ev = e_by_key.get(key)
        knotted = key in tangled
        for code in stream:
            index = code >> 1
            if code & 1:
                # ---- write: step ② then step ③, on the key's one list set.
                n_writes += 1
                commit_ts = w_cts[index]
                tid = w_tids[index]
                if fv is None:
                    fv = f_by_key[key] = ([commit_ts], [w_starts[index]], [w_vals[index]], [tid])
                    nxt_ts = None
                else:
                    commits, starts, f_values, f_tids = fv
                    start_ts = w_starts[index]
                    newest = commits[-1]
                    # Where step ③ inserts the write: after every entry
                    # committed at or before it, tail first.  On a key
                    # that is not tangled, the write overlaps an entry
                    # iff it meets one of its two neighbours there (the
                    # module docstring's disjointness argument); at the
                    # tail, on any key, iff the newest entry ends at or
                    # after its start.
                    if commit_ts >= newest:
                        j = -1
                        meets = check_overlaps and start_ts <= newest
                    else:
                        j = bisect_right(commits, commit_ts)
                        meets = check_overlaps and (
                            knotted
                            or starts[j] <= commit_ts
                            or (j > 0 and commits[j - 1] >= start_ts)
                        )
                    if meets:
                        # Step ②: scan every entry ending at or after the
                        # write's start.  Inline twin of the scan of
                        # WriterIntervals.overlap_add.
                        if not knotted:
                            knotted = True
                            tangled.add(key)
                        hits = None
                        for i in range(bisect_left(commits, start_ts), len(commits)):
                            if starts[i] <= commit_ts:
                                owner = f_tids[i]
                                if owner != tid:
                                    if hits is None:
                                        hits = w_conflicts[index] = []
                                    hits.append((owner, commits[i]))
                    if j < 0:
                        commits.append(commit_ts)
                        starts.append(start_ts)
                        f_values.append(w_vals[index])
                        f_tids.append(tid)
                        nxt_ts = None
                    else:
                        nxt_ts = commits[j]
                        commits.insert(j, commit_ts)
                        starts.insert(j, start_ts)
                        f_values.insert(j, w_vals[index])
                        f_tids.insert(j, tid)
                    if len(commits) == 2:
                        f_multi_add(key)
                if optimized:
                    # The sweep is one slice of the key's readers (``ev``
                    # is already in hand); a shared-snapshot list in
                    # range is spliced in, and the writer's own read
                    # dropped, only when present.
                    if ev is None:
                        continue
                    ts_list, readers_list = ev
                    # Tail first: no reader's snapshot reaches this version.
                    if not ts_list or commit_ts > ts_list[-1]:
                        continue
                    lo = bisect_left(ts_list, commit_ts)
                    hi = len(ts_list) if nxt_ts is None else sweep_end(ts_list, nxt_ts)
                    if lo < hi:
                        out = readers_list[lo:hi]
                        if list in map(type, out):
                            out = [
                                reader
                                for entry in out
                                for reader in (entry if type(entry) is list else (entry,))
                            ]
                        if tid in out:
                            out = [reader for reader in out if reader != tid]
                        if out:
                            w_reevals[index] = out
                else:
                    # Ablation: every pending read of the key against a
                    # fresh visibility query (no range cutoff); the
                    # expected value must be resolved *here*, at this
                    # point of the key's stream.
                    affected = collect_affected(key, 0, None, tid)
                    if affected:
                        w_reevals[index] = [
                            (value_at(key, sts, bottom), reader_tid)
                            for sts, reader_tid in affected
                        ]
            else:
                # ---- read: step ①, inline twins of value_at + add.
                snapshot_ts = r_ts[index]
                if fv is None:
                    r_expected[index] = bottom
                else:
                    # Tail first: a snapshot past the newest version sees it.
                    commits = fv[0]
                    if snapshot_ts + tail_shift > commits[-1]:
                        r_expected[index] = fv[2][-1]
                    else:
                        j = floor_end(commits, snapshot_ts) - 1
                        r_expected[index] = fv[2][j] if j >= 0 else bottom
                reader = r_tids[index]
                if ev is None:
                    ev = e_by_key[key] = ([snapshot_ts], [reader])
                else:
                    ts_list, readers_list = ev
                    if not ts_list or snapshot_ts > ts_list[-1]:
                        # Tail first: a snapshot past every indexed one is appended.
                        ts_list.append(snapshot_ts)
                        readers_list.append(reader)
                    else:
                        j = bisect_left(ts_list, snapshot_ts)
                        if ts_list[j] == snapshot_ts:
                            entry = readers_list[j]
                            if type(entry) is list:
                                entry.append(reader)
                            else:
                                readers_list[j] = [entry, reader]
                        else:
                            ts_list.insert(j, snapshot_ts)
                            readers_list.insert(j, reader)

    # Ops actually walked — the columns may be shared with other calls.
    # Every write adds one entry.
    frontier._n_versions += n_writes
    ext_reads._n_reads += sum(map(len, key_streams.values())) - n_writes
    return results


# ----------------------------------------------------------------------
# deep_sizeof fast paths
#
# The memory sampler runs inside capped-memory experiments, so the flat
# layouts above — per-key parallel lists — are sized inline rather than
# element-by-element through the generic memoized walk.  Each sizer
# returns the bytes beyond ``sys.getsizeof(obj)`` and pushes only rich
# sub-objects (history values) back onto the walk's stack; the
# frontier's multi-entry and tangled key sets alias the index's
# own keys, which are deliberately not re-counted (see the tolerance
# note in :mod:`repro.util.sizeof`).
# ----------------------------------------------------------------------


def _frontier_bytes(frontier: VersionedFrontier, stack: List[Any]) -> int:
    getsizeof = sys.getsizeof
    by_key = frontier._by_key
    total = getsizeof(by_key) + getsizeof(frontier._multi) + getsizeof(frontier._tangled)
    for key, rep in by_key.items():
        commits, starts, values, tids = rep
        total += getsizeof(key) + getsizeof(rep) + getsizeof(commits) + getsizeof(starts)
        total += getsizeof(values) + getsizeof(tids)
        total += sum(map(getsizeof, commits)) + sum(map(getsizeof, starts))
        total += sum(map(getsizeof, tids))
        stack += values
    return total


def _ext_reads_bytes(ext_reads: ExtReadIndex, stack: List[Any]) -> int:
    getsizeof = sys.getsizeof
    by_key = ext_reads._by_key
    total = getsizeof(by_key)
    for key, index in by_key.items():
        ts_list, readers_list = index
        total += getsizeof(key) + getsizeof(index)
        total += getsizeof(ts_list) + getsizeof(readers_list)
        total += sum(map(getsizeof, ts_list))
        for entry in readers_list:  # a tid, or a list of tids
            total += getsizeof(entry)
            if type(entry) is list:
                total += sum(map(getsizeof, entry))
    return total


register_sizer(VersionedFrontier, _frontier_bytes)
register_sizer(ExtReadIndex, _ext_reads_bytes)
