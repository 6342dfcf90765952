"""History serialization: JSON Lines on disk, columnar packs on the wire.

Two formats share this module so WAL files, history files, and wire
traffic keep one schema:

**JSON Lines** — one JSON object per transaction::

    {"tid": 7, "sid": 2, "sno": 3, "sts": 101, "cts": 108,
     "ops": [["w", "x", 5], ["r", "y", 0], ["a", "l", 9], ["rl", "l", [1, 9]]]}

The format is append-friendly (the online collector writes it as the
database runs) and loads in a single pass — the "loading" stage measured
by the runtime-decomposition figures (Fig 8, 9, 24).

**Columnar packs** — the struct-packed batch codec lives in
:mod:`repro.core.colpack`, the shared home of every columnar framing
(wire blobs, packed WAL files, and the sharded executor's
shared-memory lane frames); :class:`ColumnarBatch`,
:func:`pack_columnar` and :func:`unpack_columnar` are re-exported here
unchanged, and :func:`save_history_packed` / :func:`load_history_packed`
wrap them in length-prefixed file chunks.

Both file forms decode two ways.  :func:`load_columns` — what ``repro
check`` reads a history with — sniffs the packed magic and decodes
either form straight into the flat columns of one :class:`ColumnarBatch`
(:func:`columns_from_jsonl` appends each line's five integers and its
op triples to a dozen big lists): no :class:`Operation`, no
:class:`Transaction`, no derived views, which is all the offline
checkers need and a third of the time and half the memory of building
the objects.  :func:`load_history` / :func:`load_history_packed` are the
object-returning fronts for everything that wants a :class:`History`.
The ``[code, key, value]`` → ``(kind, key, value)`` rule is one
function, :func:`_decode_ops`, whichever way a transaction is decoded.

Value fidelity of the columnar codec deliberately matches the JSONL
codec: a top-level sequence value decodes as a *shallow* tuple (nested
sequences come back as lists, exactly as a JSON array round trip
produces), dict values survive unchanged, and ``⊥v`` — which JSONL
cannot carry at all — is a strict extension.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, BinaryIO, Dict, Iterable, Iterator, List, Sequence, Union

# Re-exported for compatibility: the columnar codec moved to
# repro.core.colpack so the shard lanes can share it without importing
# the history-file machinery.
from repro.core.colpack import (
    OP_APPEND,
    OP_READ,
    OP_READ_LIST,
    OP_WRITE,
    ColumnarBatch,
    _KIND_OF_CODE,
    _U32,
    pack_columnar,
    unpack_columnar,
)
from repro.histories.model import History, Operation, OpKind, Transaction

__all__ = [
    "txn_to_dict",
    "txn_from_dict",
    "history_to_jsonl",
    "history_from_jsonl",
    "save_history",
    "load_history",
    "iter_history_file",
    "columns_from_rows",
    "columns_from_jsonl",
    "load_columns",
    "ColumnarBatch",
    "pack_columnar",
    "unpack_columnar",
    "save_history_packed",
    "load_history_packed",
]

_CODE_OF_WIRE = {"r": OP_READ, "w": OP_WRITE, "a": OP_APPEND, "rl": OP_READ_LIST}


def _op_to_wire(op: Operation) -> List[Any]:
    value = list(op.value) if op.kind is OpKind.READ_LIST else op.value
    return [op.kind.value, op.key, value]


def _decode_ops(wire_ops: Any, kinds: bytearray, keys: List[Any], values: List[Any]) -> None:
    """Append one transaction's ``[code, key, value]`` triples to op columns.

    List values are tuples in the model (list keys hold tuples; ⊥T may
    write an empty tuple); JSON renders them as arrays, so any array
    decodes back to a tuple regardless of operation kind, and a
    read-list's value is a tuple whatever it was written as (what
    :class:`Operation` enforces).
    """
    code = None
    try:
        for code, key, value in wire_ops:
            kind = _CODE_OF_WIRE[code]
            kinds.append(kind)
            keys.append(key)
            values.append(
                tuple(value) if kind == OP_READ_LIST or isinstance(value, list) else value
            )
    except KeyError:
        raise ValueError(f"unknown operation code {code!r}") from None
    except (TypeError, ValueError):
        raise ValueError(
            "malformed ops: want [code, key, value] triples, a read-list's value an array"
        ) from None


def txn_to_dict(txn: Transaction) -> Dict[str, Any]:
    """Encode one transaction as a JSON-ready dict."""
    return {
        "tid": txn.tid,
        "sid": txn.sid,
        "sno": txn.sno,
        "sts": txn.start_ts,
        "cts": txn.commit_ts,
        "ops": [_op_to_wire(op) for op in txn.ops],
    }


def txn_from_dict(data: Dict[str, Any]) -> Transaction:
    """Decode one transaction from its dict form."""
    kinds = bytearray()
    keys: List[Any] = []
    values: List[Any] = []
    _decode_ops(data["ops"], kinds, keys, values)
    return Transaction(
        tid=data["tid"],
        sid=data["sid"],
        sno=data["sno"],
        ops=map(Operation, [_KIND_OF_CODE[kind] for kind in kinds], keys, values),
        start_ts=data["sts"],
        commit_ts=data["cts"],
    )


_decode_json = json.JSONDecoder().raw_decode


def columns_from_rows(rows: Iterable[Dict[str, Any]]) -> ColumnarBatch:
    """Flatten transactions in dict form straight into one :class:`ColumnarBatch`.

    The columnar twin of ``[txn_from_dict(row) for row in rows]`` and
    the row-append step of :func:`columns_from_jsonl` — also how the
    daemon turns an ndjson ``submit`` into the batch a binary frame
    carries.  No per-transaction or per-operation object is built.
    Raises what :func:`txn_from_dict` raises: :class:`KeyError` for a
    missing field, :class:`TypeError` for a row that is not an object,
    :class:`ValueError` from :func:`_decode_ops`.
    """
    tids: List[int] = []
    sids: List[int] = []
    snos: List[int] = []
    starts: List[int] = []
    commits: List[int] = []
    offsets: List[int] = [0]
    kinds = bytearray()
    keys: List[str] = []
    values: List[Any] = []
    for data in rows:
        tids.append(data["tid"])
        sids.append(data["sid"])
        snos.append(data["sno"])
        starts.append(data["sts"])
        commits.append(data["cts"])
        _decode_ops(data["ops"], kinds, keys, values)
        offsets.append(len(keys))
    return ColumnarBatch(tids, sids, snos, starts, commits, offsets, bytes(kinds), keys, values)


def columns_from_jsonl(lines: Iterable[str], *, where: str = "line ") -> ColumnarBatch:
    """Decode JSON Lines straight into one :class:`ColumnarBatch`.

    Each line is parsed and handed to :func:`columns_from_rows`.  Blank
    lines are ignored.  Raises :class:`ValueError`
    naming the line (``"<where><line number>: <what>"``) for malformed
    JSON, a missing field, ops that are not ``[code, key, value]``
    triples, an unknown op code, or a transaction id seen before (what
    :class:`History` refuses).
    """
    line_no = 0

    def rows() -> Iterator[Dict[str, Any]]:
        nonlocal line_no
        seen: set = set()
        for line_no, line in enumerate(lines, 1):
            line = line.strip()
            if not line:
                continue
            data, end = _decode_json(line)
            if end != len(line):
                raise ValueError("extra data after the transaction object")
            tid = data["tid"]
            if tid in seen:
                raise ValueError(f"duplicate transaction id {tid}")
            seen.add(tid)
            yield data

    try:
        return columns_from_rows(rows())
    except KeyError as exc:
        raise ValueError(f"{where}{line_no}: missing field {exc}") from None
    except TypeError:
        raise ValueError(f"{where}{line_no}: not a transaction object") from None
    except UnicodeDecodeError as exc:  # raised fetching the line after ``line_no``
        raise ValueError(f"{where}{line_no + 1}: {exc}") from None
    except ValueError as exc:  # includes json.JSONDecodeError
        raise ValueError(f"{where}{line_no}: {exc}") from None


def history_to_jsonl(history: History) -> str:
    """Encode a whole history as JSON Lines text."""
    return "\n".join(json.dumps(txn_to_dict(txn), separators=(",", ":")) for txn in history)


def history_from_jsonl(text: str) -> History:
    """Decode a history from JSON Lines text (blank lines ignored)."""
    txns = [txn_from_dict(json.loads(line)) for line in text.splitlines() if line.strip()]
    return History(txns)


def save_history(history: History, path: Union[str, Path]) -> None:
    """Write a history to ``path`` in JSON Lines format."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        for txn in history:
            handle.write(json.dumps(txn_to_dict(txn), separators=(",", ":")))
            handle.write("\n")


def load_history(path: Union[str, Path]) -> History:
    """Read a history previously written by :func:`save_history`."""
    return History(iter_history_file(path))


def iter_history_file(path: Union[str, Path]) -> Iterator[Transaction]:
    """Stream transactions from a JSONL file without materializing all.

    Used by the online collector to replay pre-collected logs at a
    controlled rate (§VI-A: "we pre-collected logs and then fed historical
    data exceeding the checkers' throughput").
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield txn_from_dict(json.loads(line))


# ----------------------------------------------------------------------
# Packed history / WAL files
# ----------------------------------------------------------------------

_PACK_FILE_MAGIC = b"RPCH"  # "RePro Columnar History"
_PACK_CHUNK = 2048


def save_history_packed(
    history: Union[History, Sequence[Transaction]],
    path: Union[str, Path],
    *,
    chunk_size: int = _PACK_CHUNK,
) -> None:
    """Write a history as length-prefixed columnar chunks.

    The binary sibling of :func:`save_history`, sharing the wire's
    columnar codec: a 4-byte magic, then per chunk a u32 byte length and
    one :func:`pack_columnar` blob.  Append-friendly like the JSONL
    format — a WAL writer can emit one chunk per commit batch.
    """
    txns = list(history)
    path = Path(path)
    with path.open("wb") as handle:
        handle.write(_PACK_FILE_MAGIC)
        for lo in range(0, len(txns), chunk_size):
            blob = pack_columnar(txns[lo : lo + chunk_size])
            handle.write(_U32.pack(len(blob)))
            handle.write(blob)


def load_history_packed(path: Union[str, Path]) -> History:
    """Read a history previously written by :func:`save_history_packed`."""
    return History(iter_history_packed(path))


def iter_history_packed(path: Union[str, Path]) -> Iterator[Transaction]:
    """Stream transactions from a packed history file chunk by chunk."""
    with Path(path).open("rb") as handle:
        if handle.read(len(_PACK_FILE_MAGIC)) != _PACK_FILE_MAGIC:
            raise ValueError(f"not a packed history file: {path}")
        for batch in _packed_chunks(handle):
            yield from batch.transactions()


def _packed_chunks(handle: BinaryIO) -> Iterator[ColumnarBatch]:
    """The chunks of a packed history file positioned just past its magic."""
    while True:
        header = handle.read(4)
        if not header:
            return
        if len(header) != 4:
            raise ValueError("packed history file truncated in chunk header")
        (length,) = _U32.unpack(header)
        blob = handle.read(length)
        if len(blob) != length:
            raise ValueError("packed history file truncated in chunk body")
        batch, consumed = unpack_columnar(blob)
        if consumed != length:
            raise ValueError("packed history chunk has trailing bytes")
        yield batch


def load_columns(path: Union[str, Path]) -> ColumnarBatch:
    """Read a history file of either form as one :class:`ColumnarBatch`.

    The first four bytes tell the forms apart: a packed file's chunks are
    concatenated, anything else is decoded as JSON Lines by
    :func:`columns_from_jsonl`.  Raises :class:`ValueError` starting with
    ``<path>:`` (``<path>:<line>:`` for JSONL) for undecodable content
    and for a transaction id that occurs twice.
    """
    with Path(path).open("rb") as handle:
        if handle.read(len(_PACK_FILE_MAGIC)) != _PACK_FILE_MAGIC:
            handle.seek(0)
            return columns_from_jsonl(map(bytes.decode, handle), where=f"{path}:")
        try:
            batch = ColumnarBatch.concat(_packed_chunks(handle))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if len(set(batch.tids)) != len(batch):
        seen: set = set()
        repeated = next(tid for tid in batch.tids if tid in seen or seen.add(tid))
        raise ValueError(f"{path}: duplicate transaction id {repeated}")
    return batch
