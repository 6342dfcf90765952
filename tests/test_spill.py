"""Tests for the disk spill store and segment codec used by the online GC."""

import json
import random
import struct
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.spill import SegmentError, SpillStore, decode_segment, encode_segment
from repro.core.versioned import empty_columns
from repro.histories.model import BOTTOM


def version_columns(by_key):
    """``{key: [(commit_ts, value, tid), ...]}`` as flat VersionColumns."""
    keys, counts, commits, values, tids = empty_columns()
    for key, rows in by_key.items():
        keys.append(key)
        counts.append(len(rows))
        for commit_ts, value, tid in rows:
            commits.append(commit_ts)
            values.append(value)
            tids.append(tid)
    return keys, counts, commits, values, tids


def interval_columns(by_key):
    """``{key: [(start_ts, end_ts, tid), ...]}`` as flat IntervalColumns."""
    keys, counts, starts, ends, tids = empty_columns()
    for key, rows in by_key.items():
        keys.append(key)
        counts.append(len(rows))
        for start_ts, end_ts, tid in rows:
            starts.append(start_ts)
            ends.append(end_ts)
            tids.append(tid)
    return keys, counts, starts, ends, tids


def versions_only(store, min_ts, max_ts, by_key):
    return store.spill(min_ts, max_ts, version_columns(by_key), empty_columns())


class TestSpillStore:
    def test_spill_and_reload_roundtrip(self):
        with SpillStore() as store:
            versions_only(store, 0, 100, {"x": [(10, "a", 1)]})
            versions_only(store, 100, 200, {"x": [(150, "b", 2)]})
            reloaded = store.reload_overlapping(120)
            assert len(reloaded) == 2  # second segment's min_ts 100 <= 120
            versions, intervals = reloaded[0]
            assert versions == version_columns({"x": [(10, "a", 1)]})
            assert intervals == empty_columns()
            assert len(store) == 0

    def test_reload_respects_range(self):
        with SpillStore() as store:
            versions_only(store, 0, 50, {"old": [(1, 1, 1)]})
            versions_only(store, 60, 100, {"new": [(61, 1, 1)]})
            reloaded = store.reload_overlapping(55)
            assert [versions[0] for versions, _ in reloaded] == [["old"]]
            assert len(store) == 1  # the new segment survives

    def test_reload_unbounded(self):
        with SpillStore() as store:
            versions_only(store, 0, 50, {})
            versions_only(store, 60, 100, {})
            assert len(store.reload_overlapping(None)) == 2

    def test_min_spilled_ts(self):
        def min_spilled_ts(store):
            return min((segment.min_ts for segment in store._segments), default=None)

        with SpillStore() as store:
            assert min_spilled_ts(store) is None
            versions_only(store, 30, 50, {})
            versions_only(store, 10, 20, {})
            versions_only(store, 40, 60, {})
            assert min_spilled_ts(store) == 10
            # A reload removes exactly the segments it hits; one that
            # hits nothing leaves the store alone.
            assert store.reload_overlapping(25) != []
            assert min_spilled_ts(store) == 30
            assert store.reload_overlapping(5) == []
            assert min_spilled_ts(store) == 30
            store.reload_overlapping(None)
            assert min_spilled_ts(store) is None

    def test_files_created_and_removed(self, tmp_path):
        store = SpillStore(tmp_path / "spill")
        segment = versions_only(store, 0, 10, {"k": [(1, 1, 1)]})
        assert segment.path.exists()
        assert segment.n_items == 1
        store.reload_overlapping(None)
        assert not segment.path.exists()
        store.close()
        assert (tmp_path / "spill").exists()  # caller-owned dir kept

    def test_owned_tempdir_removed_on_close(self):
        store = SpillStore()
        directory = store.directory
        versions_only(store, 0, 10, {"k": [(1, 1, 1)]})
        store.close()
        assert not Path(directory).exists()

    def test_io_accounting(self):
        with SpillStore() as store:
            versions_only(store, 0, 10, {"k": [(1, "x" * 100, 1)]})
            assert store.bytes_written > 100
            assert store.spill_count == 1
            store.reload_overlapping(None)
            assert store.bytes_read == store.bytes_written
            assert store.reload_count == 1

    def test_swapped_segment_file_is_refused(self, tmp_path):
        """A valid segment sitting under another segment's name is foreign."""
        store = SpillStore(tmp_path)
        first = versions_only(store, 0, 10, {"k": [(1, 1, 1)]})
        second = versions_only(store, 20, 30, {"k": [(21, 2, 2)]})
        first.path.write_bytes(second.path.read_bytes())
        with pytest.raises(SegmentError):
            store.reload_overlapping(15)
        store.close()


# ----------------------------------------------------------------------
# Segment codec
# ----------------------------------------------------------------------


def jsonl_parity(value):
    """What the wire value codec promises to give back: scalars and ⊥v
    exactly; a sequence as a shallow tuple whose nested containers went
    through JSON; a dict through JSON."""
    if isinstance(value, (tuple, list)):
        return tuple(
            json.loads(json.dumps(item)) if isinstance(item, (tuple, list, dict)) else item
            for item in value
        )
    if isinstance(value, dict):
        return json.loads(json.dumps(value))
    return value


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**63) - 5, max_value=2**63 + 5),
    st.sampled_from([2**63 - 1, -(2**63), 2**63, -(2**63) - 1, 10**30]),
    st.floats(allow_nan=False),
    st.text(),
    st.just(BOTTOM),
)
json_scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.text())
nested = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=3),
    ),
    max_leaves=6,
)
values = st.one_of(
    scalars,
    st.lists(st.one_of(scalars, nested), max_size=4),
    st.lists(st.one_of(scalars, nested), max_size=4).map(tuple),
    st.dictionaries(st.text(max_size=4), nested, max_size=3),
)
keys = st.text(max_size=12)  # arbitrary unicode, "\x00" included
timestamps = st.integers(min_value=-(2**63), max_value=2**63 - 1)
version_rows = st.dictionaries(
    keys, st.lists(st.tuples(timestamps, values, timestamps), min_size=1, max_size=4), max_size=5
)
interval_rows = st.dictionaries(
    keys, st.lists(st.tuples(timestamps, timestamps, timestamps), min_size=1, max_size=4), max_size=5
)


class TestSegmentCodec:
    @settings(max_examples=150, deadline=None)
    @given(version_rows, interval_rows, timestamps, timestamps)
    def test_round_trip(self, versions, intervals, min_ts, max_ts):
        v_cols, i_cols = version_columns(versions), interval_columns(intervals)
        blob = encode_segment(min_ts, max_ts, v_cols, i_cols)
        decoded = decode_segment(blob)
        assert encode_segment(*decoded) == blob  # two sections, nothing else in the image
        assert (decoded.min_ts, decoded.max_ts) == (min_ts, max_ts)
        assert decoded.intervals == i_cols
        want = v_cols[:3] + ([jsonl_parity(value) for value in v_cols[3]],) + v_cols[4:]
        assert decoded.versions == want
        for got, sent in zip(decoded.versions[3], want[3]):
            assert type(got) is type(sent)  # True is not 1, 1.0 is not 1

    def test_empty_sections(self):
        decoded = decode_segment(encode_segment(5, 5, empty_columns(), empty_columns()))
        assert decoded == (5, 5, empty_columns(), empty_columns())

    @staticmethod
    def sample_segment():
        versions = version_columns(
            {
                "x": [(1, 10, 1), (4, "four", 2)],
                "k\x00ey ✓": [(2, BOTTOM, 3), (3, (1, [2, 3]), 4), (5, {"d": None}, 5)],
                "big": [(6, 2**70, 6), (7, None, 7), (8, -1.5, 8)],
            }
        )
        intervals = interval_columns({"x": [(0, 1, 1), (3, 4, 2)], "y": [(2, 9, 9)]})
        return encode_segment(0, 9, versions, intervals)

    def test_every_truncation_raises(self):
        blob = self.sample_segment()
        decode_segment(blob)
        for cut in range(len(blob)):
            with pytest.raises(SegmentError):
                decode_segment(blob[:cut])
        with pytest.raises(SegmentError):
            decode_segment(blob + b"\x00")

    def test_byte_flips_raise(self):
        blob = self.sample_segment()
        rng = random.Random(1213)
        for _ in range(400):
            mutated = bytearray(blob)
            position = rng.randrange(len(blob))
            mutated[position] ^= rng.randrange(1, 256)
            with pytest.raises(SegmentError):
                decode_segment(bytes(mutated))

    def test_version_1_image_is_refused(self):
        """The format this one replaced: three section lengths in the
        header, the third a ``pack_columnar`` blob of the evicted
        transactions (empty when a cycle evicted none)."""
        blob = self.sample_segment()
        v2_fields = struct.Struct("!4sHqqQQ")
        magic, version, min_ts, max_ts, n_versions, n_intervals = v2_fields.unpack_from(blob)
        assert (magic, version) == (b"RSEG", 2)
        body = blob[v2_fields.size + 4 :]
        assert len(body) == n_versions + n_intervals
        fields = struct.pack("!4sHqqQQQ", magic, 1, min_ts, max_ts, n_versions, n_intervals, 0)
        v1 = fields + struct.pack("!I", zlib.crc32(body, zlib.crc32(fields))) + body
        with pytest.raises(SegmentError, match="version-2"):
            decode_segment(v1)

    def test_foreign_file_raises(self):
        for foreign in (b"", b"{}", json.dumps({"min_ts": 0, "payload": {}}).encode() * 4):
            with pytest.raises(SegmentError):
                decode_segment(foreign)
