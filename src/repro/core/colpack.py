"""Columnar packs: the shared binary value codec of wire, spill and packed files.

One struct-packed layout serves every boundary a batch of operations
crosses: :func:`pack_columnar` renders a batch of transactions as one
binary blob (five bulk-packed ``i64`` meta columns, per-blob key
interning, one op-kind byte per op, and op values split into a tag
column + a bulk ``i64`` column + an overflow stream).
:func:`unpack_columnar` decodes the blob into a :class:`ColumnarBatch`
of flat parallel arrays, and accepts any buffer — ``bytes`` or a
``memoryview`` slice straight out of a socket read buffer, so the
receive path never copies the payload before decoding.  The binary wire
protocol's submit frames (:mod:`repro.service.framing`) and the packed
WAL/history files are both this blob; GC spill segments
(:mod:`repro.core.segments`) reuse its key table and value column
(:func:`pack_key_table`, :func:`pack_value_column`).

Values keep *JSONL parity*: top-level sequences decode as shallow
tuples and dicts survive via embedded JSON — exactly what a JSON array
round trip yields.

This module sits below :mod:`repro.histories.serialization` and imports
only the history model, keeping the ``repro.core`` ↔
``repro.histories`` import graph acyclic.
"""

from __future__ import annotations

import json
import struct
from operator import gt
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

# The batch and the op-code table (the history model's: a transaction's
# ``codes`` column uses it) live in repro.core.batch; re-exported here
# for the codecs' callers.
from repro.core.batch import (
    OP_APPEND,
    OP_READ,
    OP_READ_LIST,
    OP_WRITE,
    ColumnarBatch,
)
from repro.histories.model import BOTTOM, Transaction, _OP_CODES

__all__ = [
    "ColumnarBatch",
    "OP_APPEND",
    "OP_READ",
    "OP_READ_LIST",
    "OP_WRITE",
    "pack_columnar",
    "unpack_columnar",
    "pack_value_column",
    "unpack_value_column",
    "pack_key_table",
    "unpack_key_table",
]

#: A readable buffer the decoders accept: ``bytes`` or a ``memoryview``
#: (e.g. a zero-copy slice of a socket read buffer).
#: ``struct.unpack_from`` handles both natively.
Buffer = Union[bytes, bytearray, memoryview]

#: Value type tags of the columnar value stream.
_VAL_NONE = 0
_VAL_BOTTOM = 1
_VAL_FALSE = 2
_VAL_TRUE = 3
_VAL_INT = 4      # i64 payload
_VAL_FLOAT = 5    # f64 payload
_VAL_STR = 6      # u32 length + UTF-8 payload
_VAL_TUPLE = 7    # u32 count + tagged items
_VAL_JSON = 8     # u32 length + UTF-8 JSON payload (dicts, big ints, …)

_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1
_INT_TAG = bytes([_VAL_INT])

_HDR = struct.Struct("!III")          # n_txns, n_keys, n_ops
_U16 = struct.Struct("!H")
_U32 = struct.Struct("!I")
_TAG_I64 = struct.Struct("!Bq")
_I64 = struct.Struct("!q")
_F64 = struct.Struct("!d")


def _encode(value: Any, tags: bytearray, ints: Optional[List[int]], out: bytearray) -> None:
    """Append one tagged value: its tag to ``tags``, its payload to ``out``.

    A top-level op value passes the split columns of
    :func:`pack_value_column` (tag column, bulk ``i64`` column ``ints``,
    overflow stream ``out``).  A tuple item passes ``tags is out`` and
    ``ints=None``, so its tag byte and payload (an int's included) land
    inline, one after the other.

    Fidelity contract (JSONL parity): scalars carry native payloads;
    sequences become shallow tuples on decode (items that are themselves
    sequences/dicts travel as embedded JSON, reproducing exactly what
    the JSONL codec's array round trip yields); dicts and
    out-of-``i64`` ints fall back to embedded JSON.  ``⊥v`` gets a
    native tag — an extension over JSONL, which cannot encode it.
    """
    if value is None:
        tags.append(_VAL_NONE)
    elif value is True:
        tags.append(_VAL_TRUE)
    elif value is False:
        tags.append(_VAL_FALSE)
    elif type(value) is int:
        if not _I64_MIN <= value <= _I64_MAX:
            _encode_json(value, tags, out)
        elif ints is None:
            out += _TAG_I64.pack(_VAL_INT, value)
        else:
            tags.append(_VAL_INT)
            ints.append(value)
    elif type(value) is str:
        payload = value.encode("utf-8")
        tags.append(_VAL_STR)
        out += _U32.pack(len(payload))
        out += payload
    elif isinstance(value, (tuple, list)):
        tags.append(_VAL_TUPLE)
        out += _U32.pack(len(value))
        for item in value:
            if isinstance(item, (tuple, list, dict)):
                # Shallow-tuple parity with the JSONL codec: nested
                # sequences decode back as lists, dicts as dicts.
                _encode_json(item, out, out)
            else:
                _encode(item, out, None, out)
    elif isinstance(value, float):
        tags.append(_VAL_FLOAT)
        out += _F64.pack(value)
    elif value is BOTTOM:
        tags.append(_VAL_BOTTOM)
    elif isinstance(value, int):  # int subclasses (IntEnum, …); bool cannot be subclassed
        _encode(int(value), tags, ints, out)
    elif isinstance(value, str):  # str subclasses
        _encode(str(value), tags, ints, out)
    else:
        # Anything else must survive a JSON round trip, exactly like the
        # JSONL codec; json.dumps raising TypeError is the shared
        # "unencodable value" contract.
        _encode_json(value, tags, out)


def _encode_json(value: Any, tags: bytearray, out: bytearray) -> None:
    payload = json.dumps(value, ensure_ascii=False).encode("utf-8")
    tags.append(_VAL_JSON)
    out += _U32.pack(len(payload))
    out += payload


def _decode_payload(tag: int, buf: Buffer, offset: int) -> Tuple[Any, int]:
    """Decode the value of ``tag`` whose payload starts at ``offset``;
    returns ``(value, next offset)``.

    The one decoder of every tag's payload: the value column's overflow
    stream and a tuple's inline items (tag byte, then payload) both read
    through it.  Only the callers' fast paths — an in-range int, and at
    top level ``None`` and a str — bypass it.
    """
    if tag == _VAL_STR or tag == _VAL_JSON:
        (length,) = _U32.unpack_from(buf, offset)
        offset += 4
        payload = buf[offset : offset + length]
        if len(payload) != length:
            what = "string" if tag == _VAL_STR else "JSON"
            raise ValueError(f"columnar pack truncated in {what} value")
        value = str(payload, "utf-8") if tag == _VAL_STR else json.loads(bytes(payload))
        return value, offset + length
    if tag == _VAL_NONE:
        return None, offset
    if tag == _VAL_TUPLE:
        (n_items,) = _U32.unpack_from(buf, offset)
        offset += 4
        end = len(buf)
        if n_items > end - offset:  # each item needs >= 1 byte
            raise ValueError("columnar pack truncated in tuple value")
        items: List[Any] = []
        append = items.append
        i64_unpack = _I64.unpack_from
        for _ in range(n_items):
            if offset >= end:
                raise ValueError("columnar pack truncated in value stream")
            tag = buf[offset]
            if tag == _VAL_INT:
                append(i64_unpack(buf, offset + 1)[0])
                offset += 9
            else:
                item, offset = _decode_payload(tag, buf, offset + 1)
                append(item)
        return tuple(items), offset
    if tag == _VAL_TRUE:
        return True, offset
    if tag == _VAL_FALSE:
        return False, offset
    if tag == _VAL_FLOAT:
        return _F64.unpack_from(buf, offset)[0], offset + 8
    if tag == _VAL_BOTTOM:
        return BOTTOM, offset
    raise ValueError(f"unknown value tag {tag}")


def unpack_value_column(buf: Buffer, offset: int, n_ops: int) -> Tuple[List[Any], int]:
    """Decode the split top-level value section; returns (values, next offset).

    Layout: ``n_ops`` tag bytes, then one bulk ``!{k}q`` column holding
    every ``_VAL_INT`` payload in op order (``k`` = the tag column's INT
    count — recomputed here at C speed), then the overflow stream of
    per-tag payloads for everything non-scalar.  The dominant case (an
    in-range int) costs one list index per op instead of a struct call.
    """
    tags = bytes(buf[offset : offset + n_ops])
    if len(tags) != n_ops:
        raise ValueError("columnar pack truncated in value tags")
    offset += n_ops
    n_ints = tags.count(_VAL_INT)
    ints_struct = struct.Struct(f"!{n_ints}q")
    ints = ints_struct.unpack_from(buf, offset)
    offset += ints_struct.size
    if n_ints == n_ops:  # steady-state register batches: every value an int
        return list(ints), offset
    values: List[Any] = []
    append = values.append
    u32_unpack = _U32.unpack_from
    decode = _decode_payload
    next_int = 0
    for tag in tags:
        if tag == _VAL_INT:
            append(ints[next_int])
            next_int += 1
        elif tag == _VAL_NONE:
            append(None)
        elif tag == _VAL_STR:
            (length,) = u32_unpack(buf, offset)
            offset += 4
            payload = buf[offset : offset + length]
            if len(payload) != length:
                raise ValueError("columnar pack truncated in string value")
            append(str(payload, "utf-8"))
            offset += length
        else:
            value, offset = decode(tag, buf, offset)
            append(value)
    return values, offset


def pack_value_column(values: Sequence[Any]) -> bytes:
    """Pack top-level values in the split layout
    :func:`unpack_value_column` reads: tag column, bulk ``i64`` column,
    overflow stream.  Shared by wire blobs and GC spill segments."""
    n = len(values)
    if set(map(type, values)) == {int}:
        # Steady-state register batches: every value a genuine int (the
        # type check keeps bools out — struct would silently coerce
        # them).  Out-of-i64-range ints fall through to the tagged walk.
        try:
            return _INT_TAG * n + struct.pack(f"!{n}q", *values)
        except struct.error:
            pass
    tags = bytearray()
    tags_append = tags.append
    ints: List[int] = []
    ints_append = ints.append
    overflow = bytearray()
    i64_min, i64_max = _I64_MIN, _I64_MAX
    val_int, val_none = _VAL_INT, _VAL_NONE
    for value in values:
        if type(value) is int and i64_min <= value <= i64_max:
            tags_append(val_int)
            ints_append(value)
        elif value is None:
            tags_append(val_none)
        else:
            _encode(value, tags, ints, overflow)
    return b"".join((tags, struct.pack(f"!{len(ints)}q", *ints), overflow))


def pack_key_table(keys: Iterable[str]) -> bytes:
    """Length-prefixed (``u16``) UTF-8 key table, in iteration order."""
    table = bytearray()
    pack_u16 = _U16.pack
    for key in keys:
        encoded = key.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise ValueError(f"key too long for columnar pack ({len(encoded)} bytes)")
        table += pack_u16(len(encoded))
        table += encoded
    return bytes(table)


def unpack_key_table(
    buf: Buffer, offset: int, n_keys: int, memo: Optional[Dict[str, str]] = None
) -> Tuple[List[str], int]:
    """Decode ``n_keys`` :func:`pack_key_table` entries; returns
    ``(keys, next offset)``.

    With a ``memo`` (caller-owned: one per packed file), a key already
    in it is returned as the memo's object, so tables decoded with the
    same memo share one object per distinct key.
    """
    table: List[str] = []
    table_append = table.append
    u16_unpack = _U16.unpack_from
    for _ in range(n_keys):
        (length,) = u16_unpack(buf, offset)
        offset += 2
        encoded = buf[offset : offset + length]
        if len(encoded) != length:
            raise ValueError("columnar pack truncated in key table")
        table_append(str(encoded, "utf-8"))
        offset += length
    if memo is not None:
        table = [memo.setdefault(key, key) for key in table]
    return table, offset


def pack_columnar(txns: Union[Sequence[Transaction], ColumnarBatch]) -> bytes:
    """Pack a batch of transactions as one columnar binary blob.

    Transactions are first flattened
    (:meth:`ColumnarBatch.from_transactions`, a join of their op
    columns); an already-columnar batch (relay, packed-WAL writes) is
    packed as it is.  The five meta columns
    are packed as i64 arrays, keys are interned into a per-blob string
    table, kinds are one byte per op, and values split into a tag column,
    one bulk-packed i64 column for in-range ints (the overwhelmingly
    common op value), and an overflow stream for everything else — no
    per-op struct call on the hot path, and no per-transaction dict or
    JSON object.
    """
    batch = txns if isinstance(txns, ColumnarBatch) else ColumnarBatch.from_transactions(txns)
    n = len(batch)
    n_ops = len(batch.op_kinds)
    key_ids: Dict[str, int] = {}
    for key in batch.op_keys:
        if key not in key_ids:
            key_ids[key] = len(key_ids)
    parts = [_HDR.pack(n, len(key_ids), n_ops)]
    parts.append(pack_key_table(key_ids))  # insertion order == id order
    meta = struct.Struct(f"!{n}q")
    parts.append(meta.pack(*batch.tids))
    parts.append(meta.pack(*batch.sids))
    parts.append(meta.pack(*batch.snos))
    parts.append(meta.pack(*batch.starts))
    parts.append(meta.pack(*batch.commits))
    parts.append(struct.pack(f"!{n + 1}I", *batch.op_offsets))
    parts.append(bytes(batch.op_kinds))
    parts.append(struct.pack(f"!{n_ops}I", *map(key_ids.__getitem__, batch.op_keys)))
    parts.append(pack_value_column(batch.op_values))
    return b"".join(parts)


def unpack_columnar(
    buf: Buffer, offset: int = 0, memo: Optional[Dict[str, str]] = None
) -> Tuple[ColumnarBatch, int]:
    """Decode one columnar blob; returns ``(batch, next offset)``.

    Accepts ``bytes`` or a ``memoryview`` slice — every column is read
    in place via ``struct.unpack_from``; only the decoded Python objects
    are materialized, never a second copy of the payload.  ``memo`` is
    handed to :func:`unpack_key_table`.

    Raises :class:`ValueError` on any truncation, bad count, dangling
    key reference, or unknown tag — the framing layer maps that to its
    ``ProtocolError``.  Never returns a silently truncated batch: every
    column's byte range is length-checked before slicing.
    """
    try:
        n, n_keys, n_ops = _HDR.unpack_from(buf, offset)
        offset += _HDR.size
        table, offset = unpack_key_table(buf, offset, n_keys, memo)
        meta = struct.Struct(f"!{n}q")
        meta_bytes = meta.size
        tids = meta.unpack_from(buf, offset)
        sids = meta.unpack_from(buf, offset + meta_bytes)
        snos = meta.unpack_from(buf, offset + 2 * meta_bytes)
        starts = meta.unpack_from(buf, offset + 3 * meta_bytes)
        commits = meta.unpack_from(buf, offset + 4 * meta_bytes)
        offset += 5 * meta_bytes
        offsets_struct = struct.Struct(f"!{n + 1}I")
        op_offsets = offsets_struct.unpack_from(buf, offset)
        offset += offsets_struct.size
        if op_offsets[0] != 0 or op_offsets[-1] != n_ops:
            raise ValueError("columnar pack op offsets do not cover the op count")
        if any(map(gt, op_offsets, op_offsets[1:])):
            raise ValueError("columnar pack op offsets not monotonic")
        op_kinds = bytes(buf[offset : offset + n_ops])
        if len(op_kinds) != n_ops:
            raise ValueError("columnar pack truncated in op kinds")
        unknown = op_kinds.translate(None, _OP_CODES)
        if unknown:
            raise ValueError(f"unknown op code {unknown[0]}")
        offset += n_ops
        ids_struct = struct.Struct(f"!{n_ops}I")
        id_column = ids_struct.unpack_from(buf, offset)
        offset += ids_struct.size
        op_keys = list(map(table.__getitem__, id_column))
        op_values, offset = unpack_value_column(buf, offset, n_ops)
    except (struct.error, IndexError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"malformed columnar pack: {exc}") from None
    return (
        ColumnarBatch(
            tids, sids, snos, starts, commits, op_offsets, op_kinds, op_keys, op_values
        ),
        offset,
    )
