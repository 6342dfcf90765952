"""Disk spill segments and the one GC path of the online checkers.

Aion cannot, in the worst case, discard anything permanently — a delayed
transaction may still require re-checking against old state (§III-C).  Its
GC therefore *transfers* structures below a chosen timestamp from memory
to disk and reloads them on demand (Algorithm 3, the ▨/▧ annotations).

:class:`SpillingGc` is that protocol — resident index, ``collect_below``,
reload-on-demand — written once for :class:`~repro.core.aion.Aion`,
:class:`~repro.core.aion_ser.AionSer` and
:class:`~repro.core.sharded.ShardedAion`; each checker only says how to
evict and re-merge its per-key structures.  Evicted state travels as the
flat columns of :mod:`repro.core.versioned`
(:data:`~repro.core.versioned.VersionColumns`: the frontier's entries,
each a writer's commit and start timestamps, tid and value), which
:func:`encode_segment` writes without regrouping.

The paper's Aion also moves the *transactions* below the watermark to
disk, because its step ③ re-checks transactions.  These checkers re-check
the per-key read index and the flat EXT records instead, so no arrived
transaction is kept at all: what is "resident" is one ``tid -> commit_ts``
index entry per arrival, which a cycle releases — nothing about it is
written.  A record of the arrivals themselves is the collector's WAL, not
the checker's.

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
(the wire codec: JSONL parity, native ``⊥v``).  A file that is
truncated, altered or not a segment — an image of an older version,
included: version 1 carried a third section of packed transactions,
version 2 a second one of writer intervals — raises
:class:`SegmentError`; it never decodes to different content.  ``reload_overlapping`` returns (and removes) every
segment that starts at or below a queried timestamp.  Writing real files
keeps the measured GC cost honest in the Fig 12/16 experiments.
"""

from __future__ import annotations

import shutil
import struct
import tempfile
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.colpack import (
    Buffer,
    pack_key_table,
    pack_value_column,
    unpack_key_table,
    unpack_value_column,
)
from repro.core.versioned import VersionColumns
from repro.util.hostgc import paused

__all__ = [
    "DecodedSegment",
    "GcReport",
    "SegmentError",
    "SpillSegment",
    "SpillStore",
    "SpillingGc",
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


@dataclass(frozen=True)
class SpillSegment:
    """Metadata of one on-disk segment."""

    segment_id: int
    min_ts: int
    max_ts: int
    path: Path
    n_items: int


class SpillStore:
    """Spill segments to a directory and reload them on demand.

    The store owns its directory; with ``directory=None`` a temporary one
    is created and removed by :meth:`close`.
    """

    def __init__(self, directory: Optional[Path] = None) -> None:
        if directory is None:
            self._dir = Path(tempfile.mkdtemp(prefix="repro-spill-"))
            self._owns_dir = True
        else:
            self._dir = Path(directory)
            self._dir.mkdir(parents=True, exist_ok=True)
            self._owns_dir = False
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
        """Delete all segments (and the directory when owned)."""
        for segment in self._segments:
            segment.path.unlink(missing_ok=True)
        self._segments.clear()
        if self._owns_dir:
            shutil.rmtree(self._dir, ignore_errors=True)

    def __enter__(self) -> "SpillStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


@dataclass
class GcReport:
    """Outcome of one garbage collection cycle.

    ``evicted_intervals`` counts the evicted entries the NOCONFLICT
    query walks: every evicted version under SI, none under SER (which
    asks no overlap query).
    """

    requested_ts: int
    effective_ts: int
    evicted_versions: int
    evicted_intervals: int
    evicted_txns: int
    seconds: float


class SpillingGc:
    """Resident index + garbage collection (lines 3:62–3:66), shared by the
    three online checkers.

    A checker calls :meth:`_init_gc`, enters each accepted arrival in
    ``_resident`` (``tid -> commit_ts``), and implements
    ``_evict_columns(ts) -> VersionColumns`` and
    ``_merge_columns(versions)`` over its per-key frontier;
    ``self.config.spill_dir`` says where segments go, and
    ``self._ignores_start_ts`` whether the checker asks no overlap query.
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
                self._spill = SpillStore(self.config.spill_dir)
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
