"""Tests for Aion's timestamp-versioned structures.

The structures are written through one batched entry point,
``probe_columns``, and a handful of one-query methods that say the same
thing per call (``value_at``, ``insert_and_next_ts``, ``overlap_add``,
``add``, ``collect_affected``).  The per-query tests below go through
the methods; ``TestProbeColumns`` holds the batched pass to the same
answers, in both visibility modes, on short keys and on hot keys holding
thousands of entries per structure.
"""

import sys
from random import Random

import pytest

from repro.core.versioned import (
    ExtReadIndex,
    VersionedFrontier,
    WriterIntervals,
    probe_columns,
)
from repro.util.sizeof import deep_sizeof

BOTTOM = object()


def probe(frontier, writers, reads, key, ops, *, strict=False, optimized=True):
    """Run ``ops`` on one key through ``probe_columns``, in order.

    An op is ``("r", snapshot_ts, tid)`` or
    ``("w", start_ts, commit_ts, tid, value)``; returns one answer per op:
    the expected value of a read, ``(conflicts, re-checks)`` of a write —
    the re-checks being reader tids, or ``(expected, reader_tid)`` rows
    under the ablation.
    """
    r_ts, r_tids = [], []
    w_vals, w_starts, w_cts, w_tids = [], [], [], []
    stream = []
    for op in ops:
        if op[0] == "r":
            stream.append(len(r_ts) << 1)
            for column, value in zip((r_ts, r_tids), op[1:]):
                column.append(value)
        else:
            stream.append(len(w_cts) << 1 | 1)
            for column, value in zip((w_starts, w_cts, w_tids, w_vals), op[1:]):
                column.append(value)
    r_expected, w_conflicts, w_reevals = probe_columns(
        frontier, writers, reads, {key: stream},
        r_ts, r_tids, w_vals, w_starts, w_cts, w_tids,
        optimized, BOTTOM, strict=strict,
    )
    return [
        (w_conflicts[code >> 1], w_reevals[code >> 1]) if code & 1 else r_expected[code >> 1]
        for code in stream
    ]


class TestVersionedFrontier:
    def test_latest_at_floor_semantics(self):
        f = VersionedFrontier()
        f.insert("x", 10, "a", 1)
        f.insert("x", 20, "b", 2)
        assert f.latest_at("x", 5) is None
        assert f.latest_at("x", 10) == (10, "a", 1)
        assert f.latest_at("x", 15) == (10, "a", 1)
        assert f.latest_at("x", 99) == (20, "b", 2)

    def test_latest_before_strict(self):
        """The serial predecessor (Aion-SER's floor) is the strict mode
        of the probe pass: a version at the snapshot point is not seen."""
        f = VersionedFrontier()
        f.insert("x", 10, "a", 1)
        reads = [("r", 10, 7), ("r", 11, 8)]
        assert probe(f, None, ExtReadIndex(), "x", reads, strict=True) == [BOTTOM, "a"]
        assert probe(f, WriterIntervals(), ExtReadIndex(), "x", reads) == ["a", "a"]

    def test_next_after(self):
        """The overwriting version is what an insert reports back."""
        f = VersionedFrontier()
        f.insert("x", 10, "a", 1)
        f.insert("x", 20, "b", 2)
        assert f.insert_and_next_ts("x", 10, "a", 1) == 20
        assert f.insert_and_next_ts("x", 20, "b", 2) is None
        assert f.insert_and_next_ts("y", 0, "c", 3) is None

    def test_out_of_order_insert(self):
        f = VersionedFrontier()
        f.insert("x", 20, "b", 2)
        assert f.insert_and_next_ts("x", 10, "a", 1) == 20  # arrives late
        assert f.latest_at("x", 15) == (10, "a", 1)

    def test_evict_keeps_newest_per_key(self):
        f = VersionedFrontier()
        for ts in (10, 20, 30, 40):
            f.insert("x", ts, f"v{ts}", ts)
        segment = f.evict_below(30)
        # 10 and 20 evicted; 30 kept in memory as the newest <= 30.
        assert segment == (["x"], [2], [10, 20], ["v10", "v20"], [10, 20])
        assert f.latest_at("x", 35) == (30, "v30", 30)
        assert f.latest_at("x", 99) == (40, "v40", 40)

    def test_evict_then_merge_restores(self):
        f = VersionedFrontier()
        for ts in (10, 20, 30):
            f.insert("x", ts, f"v{ts}", ts)
        segment = f.evict_below(30)
        assert f.latest_at("x", 15) is None  # old floor gone
        f.merge(segment)
        assert f.latest_at("x", 15) == (10, "v10", 10)

    def test_len_counts_versions(self):
        f = VersionedFrontier()
        f.insert("x", 10, "a", 1)
        f.insert("x", 10, "a2", 1)  # overwrite, not a new version
        f.insert("y", 5, "b", 2)
        assert len(f) == 2



class TestWriterIntervals:
    def test_overlap_excludes_self(self):
        w = WriterIntervals()
        w.add("x", 1, 5, tid=1)
        w.add("x", 4, 9, tid=2)
        # (owner, owner's commit_ts) per overlapping interval, never the
        # querying writer's own.
        assert w.overlap_add("x", 4, 9, 2) == [(1, 5)]
        assert w.overlap_add("x", 1, 5, 1) == [(2, 9), (2, 9)]

    def test_overlaps_listed_by_end_then_insertion_order(self):
        """The one conflict order: ascending end, equal ends in the order
        they were inserted — not by start, and not by owner."""
        w = WriterIntervals()
        w.add("x", 10, 40, tid=1)  # starts first, ends last
        w.add("x", 30, 35, tid=2)
        w.add("x", 20, 35, tid=3)  # same end as tid 2, inserted after it
        w.add("x", 25, 38, tid=0)
        assert w.overlap_add("x", 5, 50, 9) == [(2, 35), (3, 35), (0, 38), (1, 40)]

    def test_keys_are_independent(self):
        w = WriterIntervals()
        w.add("x", 1, 5, tid=1)
        assert w.overlap_add("y", 0, 100, 0) == []

    def test_evict_and_merge(self):
        w = WriterIntervals()
        w.add("x", 1, 4, tid=1)
        w.add("x", 10, 14, tid=2)
        segment = w.evict_below(9)
        assert segment == (["x"], [1], [1], [4], [1])
        assert len(w) == 1
        w.merge(segment)
        assert len(w) == 2
        assert w.overlap_add("x", 0, 20, 0) == [(1, 4), (2, 14)]


class TestExtReadIndex:
    def test_affected_by_range(self):
        idx = ExtReadIndex()
        idx.add("x", 10, tid=1)
        idx.add("x", 20, tid=2)
        idx.add("x", 30, tid=3)
        # New version at ts 15, next version at 25: affects snapshot 20 only.
        assert list(idx.affected_by("x", 15, 25)) == [(20, 2)]

    def test_affected_by_unbounded(self):
        idx = ExtReadIndex()
        idx.add("x", 10, tid=1)
        idx.add("x", 20, tid=2)
        assert list(idx.affected_by("x", 5, None)) == [(10, 1), (20, 2)]

    def test_upper_inclusive_for_ser(self):
        idx = ExtReadIndex()
        idx.add("x", 25, tid=9)
        assert list(idx.affected_by("x", 15, 25)) == []
        assert list(idx.affected_by("x", 15, 25, upper_inclusive=True)) == [(25, 9)]

    def test_remove_and_missing_remove(self):
        idx = ExtReadIndex()
        idx.add("x", 10, tid=1)
        idx.remove("x", 10, tid=1)
        assert len(idx) == 0
        idx.remove("x", 10, tid=1)  # idempotent
        idx.remove("zzz", 1, tid=1)

    def test_shared_snapshot_keeps_all_readers(self):
        """Two readers at one snapshot point must both stay indexed."""
        idx = ExtReadIndex()
        idx.add("x", 10, tid=1)
        idx.add("x", 10, tid=2)
        assert len(idx) == 2
        assert list(idx.affected_by("x", 5, None)) == [(10, 1), (10, 2)]

    def test_observed_value_is_accepted_and_not_kept(self):
        """The fourth argument is what the frozen ladder rung still
        passes; the tracker record is the value's one home."""
        idx = ExtReadIndex()
        idx.add("x", 10, 1, "a")
        idx.add("x", 10, 2, actual="b")
        assert idx._by_key["x"] == ([10], [[1, 2]])

    def test_remove_one_shared_reader_spares_the_other(self):
        idx = ExtReadIndex()
        idx.add("x", 10, tid=1)
        idx.add("x", 10, tid=2)
        idx.remove("x", 10, tid=1)
        assert len(idx) == 1
        assert list(idx.affected_by("x", 5, None)) == [(10, 2)]
        idx.remove("x", 10, tid=2)
        assert len(idx) == 0


def test_removal_is_per_reader():
    """Finalization removes one reader of one snapshot point: a shared
    snapshot keeps its other readers, a tid indexed twice (a
    retransmission) loses one entry per removal, and a removal naming
    nobody is a no-op."""
    idx = ExtReadIndex()
    for snapshot_ts, tid in [(10, 1), (20, 2), (20, 3), (30, 4), (30, 4), (40, 5), (50, 6)]:
        idx.add("x", snapshot_ts, tid)
    idx.remove_batch([("x", 20, 2), ("x", 30, 4), ("x", 40, 5), ("x", 45, 5), ("x", 50, 7), ("y", 1, 1)])
    assert list(idx.affected_by("x", 0, None)) == [(10, 1), (20, 3), (30, 4), (50, 6)]
    assert len(idx) == 4
    idx.remove_batch([("x", 20, 2), ("x", 20, 3), ("x", 30, 4), ("x", 30, 4)])
    assert list(idx.affected_by("x", 0, None)) == [(10, 1), (50, 6)]
    assert len(idx) == 2
    idx.clear()
    assert len(idx) == 0 and list(idx.affected_by("x", 0, None)) == []


class TestInsertAndNext:
    def test_matches_next_after_then_insert(self):
        f = VersionedFrontier()
        f.insert("x", 20, "b", 2)
        assert f.insert_and_next_ts("x", 10, "a", 1) == 20
        assert f.insert_and_next_ts("x", 30, "c", 3) is None
        assert len(f) == 3
        # Overwrite does not inflate the version count.
        assert f.insert_and_next_ts("x", 10, "a2", 1) == 20
        assert len(f) == 3
        assert f.latest_at("x", 15) == (10, "a2", 1)


def random_ops(rng, n, *, span=None, first_tid=0):
    """A single key's stream: unique commit timestamps in random order
    (even ones in ``[10, 10 + span)``, ``span`` defaulting to ``4 n``);
    snapshot points that collide with them (a reader at its own commit
    point: its SI start, or its SER snapshot) and with each other
    (readers sharing a snapshot), and now and then a read delivered
    twice (a retransmitted tid).  Tids count from ``first_tid``."""
    span = 4 * n if span is None else span
    commits = rng.sample(range(10, 10 + span, 2), n)
    ops, reads = [], []
    for tid, commit_ts in enumerate(commits, first_tid):
        if reads and rng.random() < 0.15:
            snapshot_ts = rng.choice(reads)[1]
        else:
            snapshot_ts = rng.choice([commit_ts, commit_ts - 1, rng.randrange(5, 10 + span)])
        reads.append(("r", snapshot_ts, tid))
        ops.append(reads[-1])
        if rng.random() < 0.1:
            ops.append(rng.choice(reads))
        if rng.random() < 0.7:
            ops.append(("w", max(0, commit_ts - rng.randrange(1, 12)), commit_ts, tid, f"v{tid}"))
    # Whatever the dice gave, one sweep above everything else meets all
    # three hard cases at once: two readers sharing a snapshot, one of
    # them indexed twice, and the writer's own read at its commit point.
    top, tid = 20 + span, first_tid + n
    ops += [("r", top + 5, tid), ("r", top + 5, tid + 1), ("r", top + 5, tid), ("r", top + 2, tid + 2)]
    ops.append(("w", top, top + 2, tid + 2, "top"))
    return ops


def near_sorted_ops(rng, n, *, clock=10, first_tid=0, finalize=True):
    """A single key's stream as a collector delivers it: timestamps
    mostly ascending from ``clock``, so most ops land at the tail of the
    key's lists — some exactly on it (a commit equal to the newest
    version's, a snapshot equal to the newest version or to the newest
    reader's) — and now and then one arrives late, anywhere below.  With
    ``finalize``, twice an ``("f",)`` op finalizes every pending read,
    emptying the read index before the next op.  Tids count from
    ``first_tid``."""
    ops, newest_commit, newest_snapshot = [], clock, clock
    for k in range(n):
        tid = first_tid + k
        clock += rng.randrange(1, 4)
        roll = rng.random()
        if roll < 0.15:
            snapshot_ts = newest_commit
        elif roll < 0.3:
            snapshot_ts = newest_snapshot
        elif roll < 0.4:
            snapshot_ts = rng.randrange(5, clock)  # late
        else:
            snapshot_ts = clock
        newest_snapshot = max(newest_snapshot, snapshot_ts)
        ops.append(("r", snapshot_ts, tid))
        if finalize and k == n // 3:
            ops.append(("f",))  # the next op is a write: a sweep of nothing
        if k == n // 3 or rng.random() < 0.7:
            roll = rng.random()
            if roll < 0.15:
                commit_ts = newest_commit  # overwrites the newest version
            elif roll < 0.25:
                commit_ts = rng.randrange(5, clock)  # late
            else:
                commit_ts = clock + rng.randrange(0, 3)
            newest_commit = max(newest_commit, commit_ts)
            start_ts = max(0, commit_ts - rng.randrange(1, 12))
            ops.append(("w", start_ts, commit_ts, tid, f"v{tid}"))
        if finalize and k == 2 * n // 3:
            ops.append(("f",))  # the next op is a read: a reader into nothing
    return ops


#: Entries per structure a hot key starts with: past 4,096, where keys
#: were once moved to a chunked container.
HOT = 4200


def hot_key_prefix(n=HOT):
    """A key GC has left alone: ``n`` readers and ``n`` writers, oldest
    first — reader ``i`` at snapshot ``40 i + 7``, writer ``i`` over
    ``[40 i + 1, 40 i + 5]`` — so each structure holds ``n`` entries.
    Returns the ops and the first free tid and timestamp."""
    ops = []
    for i in range(n):
        ops.append(("r", 40 * i + 7, i))
        ops.append(("w", 40 * i + 1, 40 * i + 5, i, f"old{i}"))
    return ops, n, 40 * n


def hot_key_ops(rng, kind):
    """The hot-key prefix, and after it a stream that lands all over the
    key's lists (``random``) or mostly at their tails (``near_sorted``,
    late ops reaching back into the prefix).  Returns ``(ops, preload)``:
    the first ``preload`` ops are the prefix."""
    prefix, first_tid, top = hot_key_prefix()
    if kind == "random":
        stream = random_ops(rng, 300, span=top, first_tid=first_tid)
    else:
        stream = near_sorted_ops(rng, 300, clock=top, first_tid=first_tid, finalize=False)
    return prefix + stream, len(prefix)


def finalizing(run, reads, key, ops):
    """``run`` over ``ops`` a segment at a time: at each ``("f",)`` op
    every pending read of ``key`` is finalized — dropped from ``reads``,
    which keeps the key, emptied — before the next op."""
    answers, segment = [], []
    for op in ops + [("f",)]:
        if op[0] != "f":
            segment.append(op)
            continue
        answers += run(segment)
        segment = []
        reads.remove_batch([(key, sts, tid) for sts, tid in reads.affected_by(key, 0, None)])
        assert len(reads) == 0 and key in reads._by_key
    return answers


def model(ops, *, strict, optimized=True, seen=None, preload=0):
    """Brute-force answers to ``ops`` under SI (``strict=False``) or SER
    visibility, with writer intervals only under SI; ``seen`` collects
    which hard cases a sweep of the stream ran into, an ``("f",)`` op
    finalizes every pending read, and the first ``preload`` ops only
    build state (none of them has an answer).

    A write's conflicts are listed by ascending end, equal ends in
    arrival order; its re-checks by snapshot point, readers of one
    snapshot in arrival order."""
    versions, reads, intervals, answers = {}, [], [], []
    seen = set() if seen is None else seen

    def visible(snapshot_ts, strict):
        below = [ts for ts in versions if (ts < snapshot_ts if strict else ts <= snapshot_ts)]
        return versions[max(below)] if below else BOTTOM

    for i, op in enumerate(ops):
        quiet = i < preload
        if op[0] == "f":
            reads.clear()
        elif op[0] == "r":
            _, snapshot_ts, tid = op
            if not quiet:
                answers.append(visible(snapshot_ts, strict))
            reads.append((snapshot_ts, tid))
        else:
            _, start_ts, commit_ts, tid, value = op
            if quiet:
                intervals.append((commit_ts, start_ts, tid))
                versions[commit_ts] = value
                continue
            hits = None
            if not strict:
                hits = sorted(
                    (
                        (end, (owner, end))
                        for end, start, owner in intervals
                        if end >= start_ts and start <= commit_ts and owner != tid
                    ),
                    key=lambda row: row[0],
                )
                hits = [hit for _, hit in hits] or None
            intervals.append((commit_ts, start_ts, tid))
            versions[commit_ts] = value
            above = [ts for ts in versions if ts > commit_ts]
            upper = min(above) if above else float("inf")
            in_range = sorted(
                (row for row in reads
                 if not optimized
                 or (commit_ts <= row[0] and (row[0] <= upper if strict else row[0] < upper))),
                key=lambda row: row[0],
            )
            affected = [row for row in in_range if row[1] != tid]
            if len(affected) < len(in_range):
                seen.add("own read at commit_ts" if (commit_ts, tid) in in_range else "own read")
            if len({row[0] for row in affected}) < len(set(affected)):
                seen.add("shared snapshot")
            if len(set(affected)) < len(affected):
                seen.add("retransmitted tid")
            if optimized:
                affected = [reader for _, reader in affected]
            else:
                affected = [(visible(sts, False), reader) for sts, reader in affected]
            answers.append((hits, affected or None))
    return answers


def by_methods(frontier, writers, reads, key, ops):
    """The SI pass spelled with the one-query methods ``probe_columns``
    inlines — what the ladder's structure rungs time."""
    answers = []
    for op in ops:
        if op[0] == "r":
            _, snapshot_ts, tid = op
            answers.append(frontier.value_at(key, snapshot_ts, BOTTOM))
            reads.add(key, snapshot_ts, tid)
        else:
            _, start_ts, commit_ts, tid, value = op
            hits = writers.overlap_add(key, start_ts, commit_ts, tid)
            next_ts = frontier.insert_and_next_ts(key, commit_ts, value, tid)
            affected = [row[1] for row in reads.collect_affected(key, commit_ts, next_ts, tid)]
            answers.append((hits or None, affected or None))
    return answers


def entries_per_structure(frontier, writers, reads, key):
    """How many entries ``key`` holds in each structure (writer
    intervals ``None`` when there are none)."""
    return (
        len(frontier._by_key[key][0]),
        None if writers is None else len(writers._by_key[key][0]),
        len(reads._by_key[key][0]),
    )


def filled(name):
    """The three structures after a stream on a short key, and for
    ``name == "hot"`` one on a hot key as well."""
    structures = VersionedFrontier(), WriterIntervals(), ExtReadIndex()
    probe(*structures, "short", random_ops(Random(1), 40))
    if name == "hot":
        probe(*structures, "hot", hot_key_ops(Random(2), "random")[0])
    return structures


@pytest.mark.parametrize("name", ["short", "hot"])
@pytest.mark.parametrize("which", [0, 1, 2], ids=["frontier", "writers", "reads"])
def test_sizers_count_what_the_generic_walk_counts(name, which):
    """Each structure's inline sizer counts every list and every stored
    value the generic memoized walk reaches from it, and over-counts at
    most one int per list slot (the walk counts a shared small int
    once, the sizer per slot)."""
    structure = filled(name)[which]
    seen = set()
    generic = sys.getsizeof(structure) + deep_sizeof(structure._by_key, _seen=seen)
    if which == 0:
        generic += deep_sizeof(structure._multi, _seen=seen)
    slots = sum(len(column) for rep in structure._by_key.values() for column in rep)
    assert generic <= deep_sizeof(structure) <= generic + 32 * slots


class TestProbeColumns:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("strict", [False, True])
    def test_matches_brute_force_model(self, strict, seed):
        ops = random_ops(Random(seed), 40)
        frontier, reads = VersionedFrontier(), ExtReadIndex()
        writers = None if strict else WriterIntervals()
        # Several calls, so later ones start from filled keys.
        got = []
        for lo in range(0, len(ops), 25):
            got += probe(frontier, writers, reads, "k", ops[lo : lo + 25], strict=strict)
        seen = set()
        assert got == model(ops, strict=strict, seen=seen)
        # Every stream meets every hard case of the sweep: a list of
        # readers sharing a snapshot inside the range, the writer's own
        # read at exactly its commit timestamp (its SI start, or its SER
        # snapshot) left out, a tid indexed twice re-checked twice.
        assert seen >= {"shared snapshot", "own read at commit_ts", "retransmitted tid"}
        assert len(reads) == sum(op[0] == "r" for op in ops)
        assert len(frontier) == sum(op[0] == "w" for op in ops)
        if writers is not None:
            assert len(writers) == len(frontier)

    @pytest.mark.parametrize("seed", range(3))
    def test_ablation_matches_brute_force_model(self, seed):
        """Every pending read but the writer's own, against the value
        its snapshot sees at that point of the stream."""
        ops = random_ops(Random(200 + seed), 30)
        structures = VersionedFrontier(), WriterIntervals(), ExtReadIndex()
        got = probe(*structures, "k", ops, optimized=False)
        assert got == model(ops, strict=False, optimized=False)

    @pytest.mark.parametrize("seed", range(4))
    def test_inline_branches_match_the_methods(self, seed):
        ops = random_ops(Random(100 + seed), 40)
        inline = VersionedFrontier(), WriterIntervals(), ExtReadIndex()
        spelled = VersionedFrontier(), WriterIntervals(), ExtReadIndex()
        assert probe(*inline, "k", ops) == by_methods(*spelled, "k", ops)
        for a, b in zip(inline, spelled):
            assert len(a) == len(b)
        assert inline[0].evict_below(10**9) == spelled[0].evict_below(10**9)
        assert inline[1].evict_below(10**9) == spelled[1].evict_below(10**9)
        assert inline[2]._by_key.keys() == spelled[2]._by_key.keys()
        assert list(inline[2].affected_by("k", 0, None)) == list(spelled[2].affected_by("k", 0, None))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("strict", [False, True])
    def test_near_sorted_matches_brute_force_model(self, strict, seed):
        """The tail-first branches — append a version, a reader or an
        interval, take the newest version as the floor, skip a sweep or
        an overlap scan — on ties to the tail, late arrivals and a read
        index emptied by finalization."""
        ops = near_sorted_ops(Random(300 + seed), 60)
        frontier, reads = VersionedFrontier(), ExtReadIndex()
        writers = None if strict else WriterIntervals()
        got = finalizing(
            lambda segment: probe(frontier, writers, reads, "k", segment, strict=strict),
            reads, "k", ops,
        )
        assert got == model(ops, strict=strict)
        assert len(frontier) == len({op[2] for op in ops if op[0] == "w"})

    @pytest.mark.parametrize("seed", range(4))
    def test_near_sorted_inline_branches_match_the_methods(self, seed):
        ops = near_sorted_ops(Random(400 + seed), 60)
        inline = VersionedFrontier(), WriterIntervals(), ExtReadIndex()
        spelled = VersionedFrontier(), WriterIntervals(), ExtReadIndex()
        assert finalizing(
            lambda segment: probe(*inline, "k", segment), inline[2], "k", ops
        ) == finalizing(
            lambda segment: by_methods(*spelled, "k", segment), spelled[2], "k", ops
        )
        for a, b in zip(inline, spelled):
            assert len(a) == len(b)
        assert inline[0].evict_below(10**9) == spelled[0].evict_below(10**9)
        assert inline[1].evict_below(10**9) == spelled[1].evict_below(10**9)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("kind", ["random", "near_sorted"])
    def test_hot_key_matches_brute_force_model(self, kind, strict, seed):
        """A key past 4,096 entries in every structure answers like a
        short one: versions and readers inserted deep inside long lists,
        overlap scans and sweeps over thousands of entries, conflicts
        still by ascending end."""
        ops, preload = hot_key_ops(Random(500 + seed), kind)
        frontier, reads = VersionedFrontier(), ExtReadIndex()
        writers = None if strict else WriterIntervals()
        probe(frontier, writers, reads, "k", ops[:preload], strict=strict)
        assert min(n for n in entries_per_structure(frontier, writers, reads, "k") if n) > 4096
        got = []
        for lo in range(preload, len(ops), 150):
            got += probe(frontier, writers, reads, "k", ops[lo : lo + 150], strict=strict)
        assert got == model(ops, strict=strict, preload=preload)
        if kind == "random" and not strict:
            # Writes landing among the old intervals conflict with them.
            assert any(answer[0] for answer in got if type(answer) is tuple)
        assert len(reads) == sum(op[0] == "r" for op in ops)
        assert len(frontier) == len({op[2] for op in ops if op[0] == "w"})

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("kind", ["random", "near_sorted"])
    def test_hot_key_inline_branches_match_the_methods(self, kind, seed):
        ops, _ = hot_key_ops(Random(600 + seed), kind)
        inline = VersionedFrontier(), WriterIntervals(), ExtReadIndex()
        spelled = VersionedFrontier(), WriterIntervals(), ExtReadIndex()
        assert probe(*inline, "k", ops) == by_methods(*spelled, "k", ops)
        assert min(entries_per_structure(*inline, "k")) > 4096
        for a, b in zip(inline, spelled):
            assert len(a) == len(b)
        assert list(inline[2].affected_by("k", 0, None)) == list(spelled[2].affected_by("k", 0, None))
        assert inline[0].evict_below(10**9) == spelled[0].evict_below(10**9)
        assert inline[1].evict_below(10**9) == spelled[1].evict_below(10**9)

    def test_hot_key_evicts_and_merges_back(self):
        """GC on a hot key cuts the dead prefix of each list and gives
        back what it cut; merging it restores every answer."""
        ops, _, _ = hot_key_prefix()
        frontier, writers, reads = VersionedFrontier(), WriterIntervals(), ExtReadIndex()
        probe(frontier, writers, reads, "k", ops)
        versions = frontier.evict_below(40 * 4000)
        intervals = writers.evict_below(40 * 4000)
        # The newest version at or below the cut stays: it is still the
        # floor of every snapshot above it.
        assert versions[1] == [3999] and intervals[1] == [4000]
        assert entries_per_structure(frontier, writers, reads, "k") == (201, 200, HOT)
        assert frontier.latest_at("k", 40 * 3999 + 7) == (40 * 3999 + 5, "old3999", 3999)
        assert frontier.latest_at("k", 40 * 3998 + 7) is None
        frontier.merge(versions)
        writers.merge(intervals)
        assert entries_per_structure(frontier, writers, reads, "k") == (HOT, HOT, HOT)
        assert frontier.latest_at("k", 40 * 3998 + 7) == (40 * 3998 + 5, "old3998", 3998)
        assert writers.overlap_add("k", 40 * 3999, 40 * 4001 + 2, -1) == [
            (3999, 40 * 3999 + 5), (4000, 40 * 4000 + 5), (4001, 40 * 4001 + 5),
        ]

    def test_hot_key_removal_is_per_reader(self):
        """Finalization churn deep inside a hot key's read index: removing
        every other reader leaves the rest, in order."""
        reads = ExtReadIndex()
        for i in range(HOT):
            reads.add("k", 40 * i + 7, i)
        reads.remove_batch([("k", 40 * i + 7, i) for i in range(0, HOT, 2)])
        reads.remove_batch([("k", 40 * i + 7, i + 1) for i in range(1, HOT, 2)])  # nobody
        assert len(reads) == HOT // 2
        assert list(reads.affected_by("k", 0, None)) == [
            (40 * i + 7, i) for i in range(1, HOT, 2)
        ]

    def test_strict_sweep_closes_at_the_next_version(self):
        """SER: the reader committing exactly at the next version's
        timestamp wrote that version and reads below itself, so a version
        slotted in underneath becomes its predecessor; under SI the same
        snapshot point already sees the next version."""
        ops = [
            ("w", 0, 25, 9, "next"),
            ("r", 25, 9),
            ("w", 0, 15, 5, "late"),
        ]
        frontier, reads = VersionedFrontier(), ExtReadIndex()
        assert probe(frontier, None, reads, "x", ops, strict=True) == [
            (None, None), BOTTOM, (None, [9]),
        ]
        frontier, reads = VersionedFrontier(), ExtReadIndex()
        assert probe(frontier, WriterIntervals(), reads, "x", ops) == [
            (None, None), "next", ([(9, 25)], None),
        ]

    def test_ablation_is_si_only(self):
        with pytest.raises(ValueError, match="SI only"):
            probe(VersionedFrontier(), None, ExtReadIndex(), "x", [], strict=True, optimized=False)
