"""Spill segments: the on-disk format of evicted frontier entries, and
the store that writes and reloads them.

:class:`~repro.core.spill.SpillingGc` imports this module at its first
spill, so a checker that never collects never compiles it.

A :class:`SpillStore` holds the segments, one binary file each, covering
a *closed* timestamp range ``[min_ts, max_ts]``::

    header     "RSEG" · u16 version (3) · i64 min_ts · i64 max_ts ·
               u64 section byte length · u32 crc32 (header + body)
    versions   u32 n_keys · u32 n_rows · key table · u32 counts[n_keys] ·
               i64 commit_ts[n_rows] · i64 start_ts[n_rows] ·
               i64 tid[n_rows] · value column

One section, one row per evicted write: the frontier carries each
writer's start, so no second section repeats its end and tid as an
interval.  Key table and value column are :mod:`repro.core.colpack`'s
(the wire codec: JSONL parity, native ``⊥v``), written from the flat
:data:`~repro.core.versioned.VersionColumns` without regrouping.  A
file that is truncated, altered or not a segment — an image of an older
version, included: version 1 carried a third section of packed
transactions, version 2 a second one of writer intervals — raises
:class:`SegmentError`; it never decodes to different content.
``reload_overlapping`` returns (and removes) every segment that starts
at or below a queried timestamp.  Writing real files keeps the measured
GC cost honest in the Fig 12/16 experiments.
"""

from __future__ import annotations

import shutil
import struct
import tempfile
import zlib
from pathlib import Path
from typing import Any, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.colpack import (
    Buffer,
    pack_key_table,
    pack_value_column,
    unpack_key_table,
    unpack_value_column,
)
from repro.core.versioned import VersionColumns

__all__ = [
    "DecodedSegment",
    "SegmentError",
    "SpillSegment",
    "SpillStore",
    "decode_segment",
    "encode_segment",
]

_MAGIC = b"RSEG"
_VERSION = 3
_FIELDS = struct.Struct("!4sHqqQ")  # magic, version, min_ts, max_ts, section length
_CRC = struct.Struct("!I")
_HEADER_SIZE = _FIELDS.size + _CRC.size
_COUNTS = struct.Struct("!II")  # n_keys, n_rows


class SegmentError(ValueError):
    """A spill segment is truncated, corrupt, or not a segment at all."""


def _pack_section(keys: Sequence[str], counts: Sequence[int], *columns: Sequence[int]) -> bytes:
    n_rows = len(columns[0])
    rows = struct.Struct(f"!{n_rows}q")
    return b"".join(
        (
            _COUNTS.pack(len(keys), n_rows),
            pack_key_table(keys),
            struct.pack(f"!{len(keys)}I", *counts),
            *(rows.pack(*column) for column in columns),
        )
    )


def _unpack_section(buf: Buffer, offset: int, n_columns: int) -> Tuple[List[Any], int]:
    n_keys, n_rows = _COUNTS.unpack_from(buf, offset)
    keys, offset = unpack_key_table(buf, offset + _COUNTS.size, n_keys)
    counts_struct = struct.Struct(f"!{n_keys}I")
    counts = list(counts_struct.unpack_from(buf, offset))
    offset += counts_struct.size
    if sum(counts) != n_rows:
        raise SegmentError("spill segment row counts do not cover the rows")
    rows = struct.Struct(f"!{n_rows}q")
    section: List[Any] = [keys, counts]
    for _ in range(n_columns):
        section.append(list(rows.unpack_from(buf, offset)))
        offset += rows.size
    return section, offset


def encode_segment(min_ts: int, max_ts: int, versions: VersionColumns) -> bytes:
    """Render one GC cycle's evicted state as a segment file image."""
    keys, counts, commits, starts, values, tids = versions
    body = _pack_section(keys, counts, commits, starts, tids) + pack_value_column(values)
    fields = _FIELDS.pack(_MAGIC, _VERSION, min_ts, max_ts, len(body))
    crc = zlib.crc32(body, zlib.crc32(fields))
    return b"".join((fields, _CRC.pack(crc), body))


class DecodedSegment(NamedTuple):
    """What :func:`decode_segment` returns."""

    min_ts: int
    max_ts: int
    versions: VersionColumns


def decode_segment(blob: bytes) -> DecodedSegment:
    """Decode a segment file image; :class:`SegmentError` unless it is
    byte-for-byte what :func:`encode_segment` wrote."""
    if len(blob) < _HEADER_SIZE:
        raise SegmentError("spill segment truncated in header")
    magic, version, min_ts, max_ts, n_body = _FIELDS.unpack_from(blob)
    if magic != _MAGIC:
        raise SegmentError("not a spill segment")
    if version != _VERSION:
        raise SegmentError(f"not a version-{_VERSION} spill segment (version {version})")
    if len(blob) != _HEADER_SIZE + n_body:
        raise SegmentError("spill segment length does not match its header")
    (crc,) = _CRC.unpack_from(blob, _FIELDS.size)
    if zlib.crc32(blob[_HEADER_SIZE:], zlib.crc32(blob[: _FIELDS.size])) != crc:
        raise SegmentError("spill segment checksum mismatch")
    try:
        (keys, counts, commits, starts, tids), offset = _unpack_section(blob, _HEADER_SIZE, 3)
        values, offset = unpack_value_column(blob, offset, len(commits))
    except (struct.error, ValueError, IndexError, UnicodeDecodeError) as exc:
        raise SegmentError(f"malformed spill segment: {exc}") from None
    if offset != len(blob):
        raise SegmentError("spill segment section overruns its length")
    return DecodedSegment(min_ts, max_ts, (keys, counts, commits, starts, values, tids))


class SpillSegment:
    """Metadata of one on-disk segment (frozen)."""

    __slots__ = ("segment_id", "min_ts", "max_ts", "path", "n_items")

    def __init__(self, segment_id: int, min_ts: int, max_ts: int, path: Path, n_items: int) -> None:
        _set = object.__setattr__
        _set(self, "segment_id", segment_id)
        _set(self, "min_ts", min_ts)
        _set(self, "max_ts", max_ts)
        _set(self, "path", path)
        _set(self, "n_items", n_items)

    def _values(self) -> tuple:
        return (self.segment_id, self.min_ts, self.max_ts, self.path, self.n_items)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return (
            f"SpillSegment(segment_id={self.segment_id!r}, min_ts={self.min_ts!r}, "
            f"max_ts={self.max_ts!r}, path={self.path!r}, n_items={self.n_items!r})"
        )

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a frozen record")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a frozen record")


class SpillStore:
    """Spill segments to a directory and reload them on demand.

    The store owns its directory: a temporary one (``TMPDIR`` decides
    where), created here and removed by :meth:`close`.
    """

    def __init__(self) -> None:
        self._dir = Path(tempfile.mkdtemp(prefix="repro-spill-"))
        self._segments: List[SpillSegment] = []
        self._next_id = 0
        self.bytes_written = 0
        self.bytes_read = 0
        self.spill_count = 0
        self.reload_count = 0

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._segments)

    @property
    def directory(self) -> Path:
        return self._dir

    def spill(
        self,
        min_ts: int,
        max_ts: int,
        versions: VersionColumns,
    ) -> SpillSegment:
        """Write one segment covering ``[min_ts, max_ts]`` and register it."""
        encoded = encode_segment(min_ts, max_ts, versions)
        segment_id = self._next_id
        self._next_id += 1
        path = self._dir / f"segment-{segment_id:08d}.bin"
        path.write_bytes(encoded)
        self.bytes_written += len(encoded)
        self.spill_count += 1
        segment = SpillSegment(segment_id, min_ts, max_ts, path, len(versions[2]))
        self._segments.append(segment)
        return segment

    def reload_overlapping(self, max_ts: Optional[int]) -> List[VersionColumns]:
        """Load and remove every segment holding content at or below
        ``max_ts`` (None: every segment).

        Returns each segment's columns in spill order so the caller can
        merge them back.
        """
        hits: List[SpillSegment] = []
        survivors: List[SpillSegment] = []
        for segment in self._segments:
            if max_ts is None or segment.min_ts <= max_ts:
                hits.append(segment)
            else:
                survivors.append(segment)
        if not hits:
            return []
        self._segments = survivors
        reloaded: List[VersionColumns] = []
        for segment in hits:
            encoded = segment.path.read_bytes()
            self.bytes_read += len(encoded)
            self.reload_count += 1
            decoded = decode_segment(encoded)
            if (decoded.min_ts, decoded.max_ts) != (segment.min_ts, segment.max_ts):
                raise SegmentError(f"{segment.path} is not the segment spilled there")
            reloaded.append(decoded.versions)
            segment.path.unlink(missing_ok=True)
        return reloaded

    def close(self) -> None:
        """Delete all segments and the directory."""
        self._segments.clear()
        shutil.rmtree(self._dir, ignore_errors=True)

    def __enter__(self) -> "SpillStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
