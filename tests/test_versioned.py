"""Tests for Aion's timestamp-versioned structures."""

from repro.core.versioned import ExtReadIndex, VersionedFrontier, WriterIntervals


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
        f = VersionedFrontier()
        f.insert("x", 10, "a", 1)
        assert f.latest_before("x", 10) is None
        assert f.latest_before("x", 11) == (10, "a", 1)

    def test_next_after(self):
        f = VersionedFrontier()
        f.insert("x", 10, "a", 1)
        f.insert("x", 20, "b", 2)
        assert f.next_after("x", 10) == (20, "b", 2)
        assert f.next_after("x", 20) is None
        assert f.next_after("y", 0) is None

    def test_out_of_order_insert(self):
        f = VersionedFrontier()
        f.insert("x", 20, "b", 2)
        f.insert("x", 10, "a", 1)  # arrives late
        assert f.latest_at("x", 15) == (10, "a", 1)
        assert f.next_after("x", 10) == (20, "b", 2)

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

    def test_min_retained_ts(self):
        f = VersionedFrontier()
        assert f.min_retained_ts() is None
        f.insert("x", 30, "a", 1)
        f.insert("y", 10, "b", 2)
        assert f.min_retained_ts() == 10


class TestWriterIntervals:
    def test_overlap_excludes_self(self):
        w = WriterIntervals()
        w.add("x", 1, 5, tid=1)
        w.add("x", 4, 9, tid=2)
        hits = w.overlapping("x", 4, 9, exclude_tid=2)
        assert [h.owner for h in hits] == [1]
        assert w.overlapping("x", 1, 5, exclude_tid=1)[0].owner == 2

    def test_keys_are_independent(self):
        w = WriterIntervals()
        w.add("x", 1, 5, tid=1)
        assert w.overlapping("y", 0, 100, exclude_tid=0) == []

    def test_evict_and_merge(self):
        w = WriterIntervals()
        w.add("x", 1, 4, tid=1)
        w.add("x", 10, 14, tid=2)
        segment = w.evict_below(9)
        assert segment == (["x"], [1], [1], [4], [1])
        assert len(w) == 1
        w.merge(segment)
        assert len(w) == 2
        assert {h.owner for h in w.overlapping("x", 0, 20, exclude_tid=0)} == {1, 2}


class TestExtReadIndex:
    def test_affected_by_range(self):
        idx = ExtReadIndex()
        idx.add("x", 10, tid=1, actual="a")
        idx.add("x", 20, tid=2, actual="b")
        idx.add("x", 30, tid=3, actual="c")
        # New version at ts 15, next version at 25: affects snapshot 20 only.
        hits = list(idx.affected_by("x", 15, 25))
        assert [tid for _, tid, _ in hits] == [2]

    def test_affected_by_unbounded(self):
        idx = ExtReadIndex()
        idx.add("x", 10, tid=1, actual="a")
        idx.add("x", 20, tid=2, actual="b")
        hits = list(idx.affected_by("x", 5, None))
        assert [tid for _, tid, _ in hits] == [1, 2]

    def test_upper_inclusive_for_ser(self):
        idx = ExtReadIndex()
        idx.add("x", 25, tid=9, actual="v")
        assert list(idx.affected_by("x", 15, 25)) == []
        assert [t for _, t, _ in idx.affected_by("x", 15, 25, upper_inclusive=True)] == [9]

    def test_remove_and_missing_remove(self):
        idx = ExtReadIndex()
        idx.add("x", 10, tid=1, actual="a")
        idx.remove("x", 10, tid=1)
        assert len(idx) == 0
        idx.remove("x", 10, tid=1)  # idempotent
        idx.remove("zzz", 1, tid=1)

    def test_shared_snapshot_keeps_all_readers(self):
        """Two readers at one snapshot point must both stay indexed."""
        idx = ExtReadIndex()
        idx.add("x", 10, tid=1, actual="a")
        idx.add("x", 10, tid=2, actual="b")
        assert len(idx) == 2
        hits = sorted((t, a) for _, t, a in idx.affected_by("x", 5, None))
        assert hits == [(1, "a"), (2, "b")]

    def test_remove_one_shared_reader_spares_the_other(self):
        idx = ExtReadIndex()
        idx.add("x", 10, tid=1, actual="a")
        idx.add("x", 10, tid=2, actual="b")
        idx.remove("x", 10, tid=1)
        assert len(idx) == 1
        assert [t for _, t, _ in idx.affected_by("x", 5, None)] == [2]
        idx.remove("x", 10, tid=2)
        assert len(idx) == 0

    def test_evict_merge_roundtrip(self):
        idx = ExtReadIndex()
        idx.add("x", 10, tid=1, actual="a")
        idx.add("x", 50, tid=2, actual="b")
        segment = idx.evict_below(20)
        assert segment == {"x": [(10, 1, "a")]}
        assert len(idx) == 1
        idx.merge(segment)
        assert len(idx) == 2

    def test_evict_flattens_shared_snapshots(self):
        idx = ExtReadIndex()
        idx.add("x", 10, tid=1, actual="a")
        idx.add("x", 10, tid=2, actual="b")
        segment = idx.evict_below(20)
        assert segment == {"x": [(10, 1, "a"), (10, 2, "b")]}
        assert len(idx) == 0
        idx.merge(segment)
        assert len(idx) == 2


class TestInsertAndNext:
    def test_matches_next_after_then_insert(self):
        f = VersionedFrontier()
        f.insert("x", 20, "b", 2)
        assert f.insert_and_next("x", 10, "a", 1) == (20, "b", 2)
        assert f.insert_and_next("x", 30, "c", 3) is None
        assert len(f) == 3
        # Overwrite does not inflate the version count.
        assert f.insert_and_next("x", 10, "a2", 1) == (20, "b", 2)
        assert len(f) == 3
        assert f.latest_at("x", 15) == (10, "a2", 1)
