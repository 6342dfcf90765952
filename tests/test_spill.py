"""Tests for the disk spill store and segment codec used by the online GC."""

import json
import random
import struct
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.segments import SegmentError, SpillStore, decode_segment, encode_segment
from repro.core.versioned import empty_columns
from repro.histories.model import BOTTOM


def version_columns(by_key):
    """``{key: [(commit_ts, start_ts, value, tid), ...]}`` as flat
    VersionColumns; a row of three takes its start from its commit."""
    columns = keys, counts, commits, starts, values, tids = empty_columns()
    for key, rows in by_key.items():
        keys.append(key)
        counts.append(len(rows))
        for row in rows:
            commit_ts, start_ts, value, tid = row if len(row) == 4 else (row[0], *row)
            commits.append(commit_ts)
            starts.append(start_ts)
            values.append(value)
            tids.append(tid)
    return columns


def versions_only(store, min_ts, max_ts, by_key):
    return store.spill(min_ts, max_ts, version_columns(by_key))


class TestSpillStore:
    def test_spill_and_reload_roundtrip(self):
        with SpillStore() as store:
            versions_only(store, 0, 100, {"x": [(10, "a", 1)]})
            versions_only(store, 100, 200, {"x": [(150, "b", 2)]})
            reloaded = store.reload_overlapping(120)
            assert len(reloaded) == 2  # second segment's min_ts 100 <= 120
            assert reloaded[0] == version_columns({"x": [(10, "a", 1)]})
            assert len(store) == 0

    def test_reload_respects_range(self):
        with SpillStore() as store:
            versions_only(store, 0, 50, {"old": [(1, 1, 1)]})
            versions_only(store, 60, 100, {"new": [(61, 1, 1)]})
            reloaded = store.reload_overlapping(55)
            assert [versions[0] for versions in reloaded] == [["old"]]
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

    def test_files_created_and_removed(self):
        with SpillStore() as store:
            segment = versions_only(store, 0, 10, {"k": [(1, 1, 1)]})
            assert segment.path.exists()
            assert segment.path.parent == store.directory
            assert segment.n_items == 1
            store.reload_overlapping(None)
            assert not segment.path.exists()

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

    def test_swapped_segment_file_is_refused(self):
        """A valid segment sitting under another segment's name is foreign."""
        with SpillStore() as store:
            first = versions_only(store, 0, 10, {"k": [(1, 1, 1)]})
            second = versions_only(store, 20, 30, {"k": [(21, 2, 2)]})
            first.path.write_bytes(second.path.read_bytes())
            with pytest.raises(SegmentError):
                store.reload_overlapping(15)


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
    keys,
    st.lists(st.tuples(timestamps, timestamps, values, timestamps), min_size=1, max_size=4),
    max_size=5,
)

#: A segment as version 2 wrote it, the format this one replaced (by
#: the encoder of that version): a versions section ``(commit_ts, tid,
#: value)`` and an intervals section ``(start, end, tid)`` repeating
#: each row's end and tid — here ``x`` written at 1 and 4 by tids 1 and
#: 2, started at 0 and 3, in a segment over ``[0, 9]``.
V2_IMAGE = bytes.fromhex(
    "525345470002000000000000000000000000000000090000000000000041000000000000003f"
    "cca124d5000000010000000200017800000002000000000000000100000000000000040000"
    "00000000000100000000000000020406000000000000000a00000004666f75720000000100"
    "000002000178000000020000000000000000000000000000000300000000000000010000"
    "00000000000400000000000000010000000000000002"
)


class TestSegmentCodec:
    @settings(max_examples=150, deadline=None)
    @given(version_rows, timestamps, timestamps)
    def test_round_trip(self, versions, min_ts, max_ts):
        v_cols = version_columns(versions)
        blob = encode_segment(min_ts, max_ts, v_cols)
        decoded = decode_segment(blob)
        assert encode_segment(*decoded) == blob  # one section, nothing else in the image
        assert (decoded.min_ts, decoded.max_ts) == (min_ts, max_ts)
        want = v_cols[:4] + ([jsonl_parity(value) for value in v_cols[4]],) + v_cols[5:]
        assert decoded.versions == want
        assert decoded.versions[3] == v_cols[3]  # every writer's start_ts
        for got, sent in zip(decoded.versions[4], want[4]):
            assert type(got) is type(sent)  # True is not 1, 1.0 is not 1

    def test_empty_section(self):
        decoded = decode_segment(encode_segment(5, 5, empty_columns()))
        assert decoded == (5, 5, empty_columns())

    def test_one_row_per_write(self):
        """Version 3 writes each evicted write once, with its start: the
        image of ``V2_IMAGE``'s rows is that image less a section length
        field, the intervals section's prefix (row counts, key table, per
        key counts: 15 bytes here) and its end and tid columns."""
        blob = encode_segment(0, 9, version_columns({"x": [(1, 0, 10, 1), (4, 3, "four", 2)]}))
        assert decode_segment(blob).versions[3] == [0, 3]
        assert len(V2_IMAGE) - len(blob) == 8 + 15 + 2 * 2 * 8

    @staticmethod
    def sample_segment():
        versions = version_columns(
            {
                "x": [(1, 0, 10, 1), (4, 3, "four", 2)],
                "k\x00ey ✓": [(2, BOTTOM, 3), (3, (1, [2, 3]), 4), (5, {"d": None}, 5)],
                "big": [(6, 2**70, 6), (7, 2, None, 7), (8, -1.5, 8)],
            }
        )
        return encode_segment(0, 9, versions)

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

    def test_version_2_image_is_refused(self):
        """The format this one replaced — two section lengths in the
        header, a versions section and an intervals section — is named
        by its version, not misread."""
        v2_fields = struct.Struct("!4sHqqQQ")
        magic, version, _, _, n_versions, n_intervals = v2_fields.unpack_from(V2_IMAGE)
        assert (magic, version) == (b"RSEG", 2)
        assert len(V2_IMAGE) == v2_fields.size + 4 + n_versions + n_intervals
        with pytest.raises(SegmentError, match=r"version-3 spill segment \(version 2\)"):
            decode_segment(V2_IMAGE)

    def test_version_1_image_is_refused(self):
        """The format before that: three section lengths in the header,
        the third a ``pack_columnar`` blob of the evicted transactions
        (empty when a cycle evicted none)."""
        v2_fields = struct.Struct("!4sHqqQQ")
        magic, _, min_ts, max_ts, n_versions, n_intervals = v2_fields.unpack_from(V2_IMAGE)
        body = V2_IMAGE[v2_fields.size + 4 :]
        fields = struct.pack("!4sHqqQQQ", magic, 1, min_ts, max_ts, n_versions, n_intervals, 0)
        v1 = fields + struct.pack("!I", zlib.crc32(body, zlib.crc32(fields))) + body
        with pytest.raises(SegmentError, match=r"version-3 spill segment \(version 1\)"):
            decode_segment(v1)

    def test_foreign_file_raises(self):
        for foreign in (b"", b"{}", json.dumps({"min_ts": 0, "payload": {}}).encode() * 4):
            with pytest.raises(SegmentError):
                decode_segment(foreign)
