"""History serialization: JSON Lines on disk, columnar packs on the wire.

Two formats share this module so history files, the CDC log's live feed
and wire traffic keep one schema:

**JSON Lines** — one JSON object per transaction, rendered by
:func:`txn_to_jsonl`::

    {"tid": 7, "sid": 2, "sno": 3, "sts": 101, "cts": 108,
     "ops": [["w", "x", 5], ["r", "y", 0], ["a", "l", 9], ["rl", "l", [1, 9]]]}

The format is append-friendly (the chaos campaign's CDC shipper appends
it as the database runs, and :class:`~repro.db.cdc.WalTailer` tails
it) and loads in a single pass — the "loading" stage measured
by the runtime-decomposition figures (Fig 8, 9, 24).

**Columnar packs** — the struct-packed batch codec lives in
:mod:`repro.core.colpack`, the shared home of every columnar framing
(wire blobs, packed history files, GC spill segments); :class:`ColumnarBatch`
(from :mod:`repro.core.batch`), :func:`pack_columnar` and
:func:`unpack_columnar` are re-exported here unchanged (the codec is
imported only when a packed file is read or written), and
:func:`save_history_packed` / :func:`load_history_packed` wrap them in
length-prefixed file chunks.

Each file form has one decode path, and every reader goes through it.
:func:`load_columns` — what ``repro check`` reads a history with —
sniffs the packed magic and decodes either form straight into the flat
columns of one :class:`ColumnarBatch` (:func:`columns_from_jsonl`
through :func:`columns_from_rows`, a packed file chunk by chunk): no
:class:`Operation`, no :class:`Transaction`, no derived views, which is
all the offline checkers need.  The object-returning fronts
(:func:`load_history`, :func:`load_history_packed`,
:func:`history_from_jsonl`) are those columns handed to
:class:`History` through :meth:`ColumnarBatch.transactions`, each
transaction keeping its slices of the op columns (no :class:`Operation`
is built), so they accept and refuse exactly what the columns do, with
the same ``<path>:<line>:`` messages.  The integer columns — the five header
columns, the op offsets and, while every value is a plain 64-bit
``int``, the op values — hold machine words in the narrowest of two
widths.  Each starts as ``array('i')`` (4 bytes) and becomes
``array('q')`` (8 bytes) at the first 2,048-row chunk
(:data:`_PACK_CHUNK`, or one packed file chunk) holding a value past 32
bits; ``array.fromlist`` raises :class:`OverflowError` rather than
truncate, so a column never holds a wrong value, and a value past 64
bits turns the value column into a list (:func:`_append_values`).  A
register history whose integers fit in 32 bits costs about 17 bytes
per operation once loaded.  The ``[code, key, value]`` → op-column
(code byte, key, value) rule is one function, :func:`_decode_ops`, which
:func:`txn_from_dict` (one row, for the CDC log's tailer) shares, and every
decode call keeps one key memo, so a file (JSONL or packed, across all
its chunks) or a text holds one ``str`` per distinct key
rather than one per operation.  The memo is local to the call: nothing
outlives a load, and no key is made immortal the way ``sys.intern``
would in a long-running daemon.

Value fidelity of the columnar codec deliberately matches the JSONL
codec: a top-level sequence value decodes as a *shallow* tuple (nested
sequences come back as lists, exactly as a JSON array round trip
produces), dict values survive unchanged, and ``⊥v`` — which JSONL
cannot carry at all — is a strict extension.
"""

from __future__ import annotations

import json
import operator
from array import array
from itertools import compress, islice
from pathlib import Path
from typing import Any, BinaryIO, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro._lazy import lazy_exports
from repro.core.batch import OP_READ_LIST, ColumnarBatch
from repro.histories.model import History, Transaction, _KIND_OF_CODE

__all__ = [
    "txn_to_dict",
    "txn_to_jsonl",
    "txn_from_dict",
    "history_to_jsonl",
    "history_from_jsonl",
    "save_history",
    "load_history",
    "columns_from_rows",
    "columns_from_jsonl",
    "load_columns",
    "ColumnarBatch",
    "pack_columnar",
    "unpack_columnar",
    "save_history_packed",
    "load_history_packed",
]

# Re-exported for compatibility: the columnar codec lives in
# repro.core.colpack so the checkers and spill segments can share it
# without importing the history-file machinery.  It is imported on first
# use, so reading a JSONL file never compiles it.
__getattr__, __dir__ = lazy_exports(
    globals(), {"pack_columnar": "repro.core.colpack", "unpack_columnar": "repro.core.colpack"}
)

#: The range of a header field: a signed 64-bit int, as the codec packs it.
_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1

#: An op's JSONL code is its kind's value (``"r"``, ``"w"``, ``"a"``, ``"rl"``).
_WIRE_OF_CODE = tuple(kind.value for kind in _KIND_OF_CODE)
_CODE_OF_WIRE = {wire: code for code, wire in enumerate(_WIRE_OF_CODE)}


#: The five header fields of a transaction row, in column order.
_HEADER = ("tid", "sid", "sno", "sts", "cts")

_MALFORMED_OPS = "malformed ops: want [code, key, value] triples, a read-list's value an array"
_KEY_NOT_STR = "every operation's key must be a string"


def _decode_header(data: Dict[str, Any]) -> Tuple[int, int, int, int, int]:
    """A row's five header fields, each a signed 64-bit ``int`` and not a ``bool``.

    JSON types a row itself, so a timestamp can arrive as a string, a
    float or ``true``; the checkers would compare it with integers (or
    raise) instead of refusing the row.  The 64-bit range is the one the
    header columns, packed files and v2 frames hold.
    """
    header = tid, sid, sno, sts, cts = (
        data["tid"], data["sid"], data["sno"], data["sts"], data["cts"]
    )
    if (
        type(tid) is type(sid) is type(sno) is type(sts) is type(cts) is int
        and _I64_MIN <= tid <= _I64_MAX
        and _I64_MIN <= sid <= _I64_MAX
        and _I64_MIN <= sno <= _I64_MAX
        and _I64_MIN <= sts <= _I64_MAX
        and _I64_MIN <= cts <= _I64_MAX
    ):
        return header
    name = next(
        name
        for name, field in zip(_HEADER, header)
        if type(field) is not int or not _I64_MIN <= field <= _I64_MAX
    )
    raise ValueError(f"every transaction's {name!r} must be a 64-bit integer")


def _decode_ops(
    wire_ops: Any, kinds: bytearray, keys: List[str], values: List[Any], memo: Dict[str, str]
) -> bool:
    """Append one transaction's ``[code, key, value]`` ops to op columns;
    true when every value appended was a plain ``int`` (what
    :func:`_append_values` may store in machine words).

    Every op is a 3-element JSON array and every key a string.  ``memo``
    maps each key seen so far to its first decoded object, and later
    ops reference that object instead of the fresh string ``json`` hands
    back for every occurrence: one object per distinct key for as long
    as the caller keeps the memo (one file, one text).  The
    string check runs on the memo's miss path, once per distinct key.

    List values are tuples in the model (list keys hold tuples; ⊥T may
    write an empty tuple); JSON renders them as arrays, so any array
    decodes back to a tuple regardless of operation kind.  A read-list's
    value must be an array: a string or an object would iterate into a
    tuple of its characters or keys.
    """
    op = code = None
    shared_key = memo.get
    plain = True
    try:
        for op in wire_ops:
            if type(op) is not list:
                raise TypeError  # a 3-character string or 3-key object unpacks too
            code, key, value = op
            kind = _CODE_OF_WIRE[code]
            kinds.append(kind)
            shared = shared_key(key)
            if shared is None:
                if type(key) is not str:
                    raise TypeError
                memo[key] = shared = key
            keys.append(shared)
            if type(value) is not int or kind == OP_READ_LIST:
                plain = False
                if type(value) is list:
                    value = tuple(value)
                elif kind == OP_READ_LIST:
                    raise TypeError
            values.append(value)
        return plain
    except KeyError:
        raise ValueError(f"unknown operation code {code!r}") from None
    except (TypeError, ValueError):
        key_is_bad = type(op) is list and len(op) == 3 and type(op[1]) is not str
        raise ValueError(_KEY_NOT_STR if key_is_bad else _MALFORMED_OPS) from None


def txn_to_dict(txn: Transaction) -> Dict[str, Any]:
    """Encode one transaction as a JSON-ready dict, from its op columns."""
    wire_of = _WIRE_OF_CODE
    return {
        "tid": txn.tid,
        "sid": txn.sid,
        "sno": txn.sno,
        "sts": txn.start_ts,
        "cts": txn.commit_ts,
        "ops": [
            [wire_of[code], key, list(value) if code == OP_READ_LIST else value]
            for code, key, value in zip(txn.codes, txn.keys, txn.values)
        ],
    }


def txn_to_jsonl(txn: Transaction) -> str:
    """One transaction as a history file's line (no newline)."""
    return json.dumps(txn_to_dict(txn), separators=(",", ":"))


def txn_from_dict(data: Dict[str, Any], memo: Optional[Dict[str, str]] = None) -> Transaction:
    """Decode one transaction from its dict form.

    ``memo`` (caller-owned, one per file or text) shares each distinct
    key's object across the transactions decoded with it; without one,
    this transaction's keys are shared only among its own ops.  The
    decoded op columns become the transaction's own
    (:meth:`Transaction.from_columns`); no :class:`Operation` is built.
    """
    tid, sid, sno, sts, cts = _decode_header(data)
    kinds = bytearray()
    keys: List[Any] = []
    values: List[Any] = []
    _decode_ops(data["ops"], kinds, keys, values, {} if memo is None else memo)
    return Transaction.from_columns(
        tid, sid, sno, bytes(kinds), tuple(keys), tuple(values), sts, cts
    )


_decode_json = json.JSONDecoder().raw_decode


def columns_from_rows(rows: Iterable[Dict[str, Any]]) -> ColumnarBatch:
    """Flatten transactions in dict form straight into one :class:`ColumnarBatch`.

    The columnar twin of ``[txn_from_dict(row) for row in rows]`` and
    the row-append step of :func:`columns_from_jsonl`.  No
    per-transaction or per-operation object is built, and each distinct
    key is one object across all the rows.  Rows are
    decoded into flat lists :data:`_PACK_CHUNK` rows at a time and
    moved into the columns by :func:`_extend` (the header columns and
    the op offsets, ``array('i')`` until a value needs ``'q'``) and
    :func:`_append_values` (the value column).  Tids are not checked
    for repeats here; a history file is (:func:`columns_from_jsonl`,
    :func:`load_columns`).  Raises what
    :func:`txn_from_dict` raises: :class:`KeyError` for a missing
    field, :class:`TypeError` for a row that is not an object,
    :class:`ValueError` for a header field that is not a 64-bit integer
    and from :func:`_decode_ops`.
    """
    columns = [array("i") for _ in _HEADER] + [array("i", [0])]
    kinds = bytearray()
    keys: List[str] = []
    values: Union[array, List[Any]] = array("i")
    #: The chunk's rows as flat (tid, sid, sno, sts, cts, op end) runs, and
    #: its op values; moved into the columns every ``_PACK_CHUNK`` rows.
    heads: List[int] = []
    chunk: List[Any] = []
    plain = True
    memo: Dict[str, str] = {}
    for count, data in enumerate(rows, 1):
        heads += _decode_header(data)
        plain = _decode_ops(data["ops"], kinds, keys, chunk, memo) and plain
        heads.append(len(keys))
        if not count % _PACK_CHUNK:
            values = _move_chunk(columns, heads, values, chunk, plain)
            plain = True
    values = _move_chunk(columns, heads, values, chunk, plain)
    return ColumnarBatch(*columns, bytes(kinds), keys, values)


def _move_chunk(
    columns: List[array],
    heads: List[int],
    values: Union[array, List[Any]],
    chunk: List[Any],
    plain: bool,
) -> Union[array, List[Any]]:
    """Empty a chunk of decoded rows into the columns; returns the value column."""
    for first, column in enumerate(columns):
        columns[first] = _extend(column, heads[first :: len(columns)])
    heads.clear()
    values = _append_values(values, chunk, plain)
    chunk.clear()
    return values


def _extend(column: array, chunk: List[int]) -> array:
    """``column`` with ``chunk`` appended, widened from ``array('i')`` to
    ``array('q')`` if a value of ``chunk`` does not fit in 32 bits.

    ``fromlist`` is all or nothing: on :class:`OverflowError` the column
    is as it was, so the chunk goes into a copy at 8 bytes a value (and
    every later chunk with it).  A value past 64 bits raises
    :class:`OverflowError`, leaving the caller's column unchanged.
    """
    try:
        column.fromlist(chunk)
    except OverflowError:
        if column.typecode == "q":
            raise
        column = array("q", column)
        column.fromlist(chunk)
    return column


def _append_values(
    column: Union[array, List[Any]], chunk: List[Any], plain: bool
) -> Union[array, List[Any]]:
    """``column`` with the decoded values of ``chunk`` appended.

    The value column of a loaded history is an ``array`` while every
    value is a plain ``int`` (``plain``: the chunk holds nothing else)
    in the signed 64-bit range: 4 or 8 bytes per op (:func:`_extend`)
    instead of an ``int`` object and a list slot.  The first chunk
    holding anything else (a ``bool``, ``None``, a float, a string, a
    tuple, a dict, a wider int) turns it into a list, once, and it stays
    one — so a ``True`` never comes back as ``1``.
    """
    if type(column) is array:
        if plain:
            try:
                return _extend(column, chunk)
            except OverflowError:
                pass
        column = column.tolist()
    column += chunk
    return column


def _first_repeat(tids: Sequence[int]) -> Optional[int]:
    """The row index of the first tid that an earlier row already has,
    or ``None`` — the one duplicate check of a loaded history file.

    One sort of the tid column and a scan of equal neighbours, both in
    C; only a file that has a repeat walks its rows to name the first
    one in file order.
    """
    ordered = sorted(tids)
    repeated = set(compress(ordered, map(operator.eq, ordered, islice(ordered, 1, None))))
    if not repeated:
        return None
    seen: set = set()
    return next(
        index
        for index, tid in enumerate(tids)
        if tid in repeated and (tid in seen or seen.add(tid))
    )


def columns_from_jsonl(lines: Iterable[str], *, where: str = "line ") -> ColumnarBatch:
    """Decode JSON Lines straight into one :class:`ColumnarBatch`.

    Each line is parsed and handed to :func:`columns_from_rows`.  Blank
    lines are ignored.  Raises :class:`ValueError`
    naming the line (``"<where><line number>: <what>"``) for malformed
    JSON, a missing field, ops that are not ``[code, key, value]``
    triples or a read-list whose value is not an array, a key that is
    not a string, a header field that is not a 64-bit integer, an
    unknown op code, or a transaction id seen before (what
    :class:`History` refuses).  Repeated tids are looked for once the
    whole file has decoded (:func:`_first_repeat`, no per-row set), so
    a decode error anywhere in the file is reported before a duplicate
    tid; the duplicate's message names the line of its second
    occurrence, blank lines counted.
    """
    line_no = 0
    #: Line numbers of the skipped lines: what maps a row back to its line.
    blanks: List[int] = []

    def rows() -> Iterator[Dict[str, Any]]:
        nonlocal line_no
        for line_no, line in enumerate(lines, 1):
            line = line.strip()
            if not line:
                blanks.append(line_no)
                continue
            data, end = _decode_json(line)
            if end != len(line):
                raise ValueError("extra data after the transaction object")
            yield data

    try:
        batch = columns_from_rows(rows())
    except KeyError as exc:
        raise ValueError(f"{where}{line_no}: missing field {exc}") from None
    except TypeError:
        raise ValueError(f"{where}{line_no}: not a transaction object") from None
    except UnicodeDecodeError as exc:  # raised fetching the line after ``line_no``
        raise ValueError(f"{where}{line_no + 1}: {exc}") from None
    except ValueError as exc:  # includes json.JSONDecodeError
        raise ValueError(f"{where}{line_no}: {exc}") from None
    repeat = _first_repeat(batch.tids)
    if repeat is not None:
        line_no = repeat + 1
        for blank in blanks:  # ascending: each one at or before the row moves it down
            if blank > line_no:
                break
            line_no += 1
        raise ValueError(f"{where}{line_no}: duplicate transaction id {batch.tids[repeat]}")
    return batch


def history_to_jsonl(history: History) -> str:
    """Encode a whole history as JSON Lines text."""
    return "\n".join(map(txn_to_jsonl, history))


def history_from_jsonl(text: str) -> History:
    """Decode a history from JSON Lines text (blank lines ignored)."""
    return History(columns_from_jsonl(text.splitlines()).transactions())


def save_history(history: History, path: Union[str, Path]) -> None:
    """Write a history to ``path`` in JSON Lines format."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        for txn in history:
            handle.write(txn_to_jsonl(txn))
            handle.write("\n")


def load_history(path: Union[str, Path]) -> History:
    """Read a history file of either form (:func:`load_columns`) as a :class:`History`."""
    return History(load_columns(path).transactions())


# ----------------------------------------------------------------------
# Packed history files
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
    from repro.core.colpack import _U32, pack_columnar

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
    with Path(path).open("rb") as handle:
        if handle.read(len(_PACK_FILE_MAGIC)) != _PACK_FILE_MAGIC:
            raise ValueError(f"not a packed history file: {path}")
    return load_history(path)


def _packed_chunks(handle: BinaryIO) -> Iterator[ColumnarBatch]:
    """The chunks of a packed history file positioned just past its magic,
    decoded with one key memo so a key is one object across chunks.

    Neither the blob nor the chunk is held while the next one is read, so
    a consumer that drops its chunk too holds one at a time."""
    from repro.core.colpack import _U32, unpack_columnar

    memo: Dict[str, str] = {}
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
        batch, consumed = unpack_columnar(blob, memo=memo)
        del blob
        if consumed != length:
            raise ValueError("packed history chunk has trailing bytes")
        yield batch
        del batch


def _packed_columns(handle: BinaryIO) -> ColumnarBatch:
    """The chunks of a packed history file in the columns
    :func:`columns_from_rows` builds: header and offset columns through
    :func:`_extend`, values through :func:`_append_values`, one file
    chunk at a time."""
    columns = [array("i") for _ in _HEADER] + [array("i", [0])]
    kinds = bytearray()
    keys: List[str] = []
    values: Union[array, List[Any]] = array("i")
    for batch in _packed_chunks(handle):
        base = len(keys)
        chunk = (batch.tids, batch.sids, batch.snos, batch.starts, batch.commits,
                 [base + offset for offset in batch.op_offsets[1:]])
        for at, part in enumerate(chunk):
            columns[at] = _extend(columns[at], list(part))
        kinds += batch.op_kinds
        keys += batch.op_keys
        values = _append_values(values, batch.op_values, set(map(type, batch.op_values)) <= {int})
        del batch, chunk  # before the next chunk is decoded
    return ColumnarBatch(*columns, bytes(kinds), keys, values)


def load_columns(path: Union[str, Path]) -> ColumnarBatch:
    """Read a history file of either form as one :class:`ColumnarBatch`.

    The first four bytes tell the forms apart: a packed file's chunks are
    concatenated, anything else is decoded as JSON Lines by
    :func:`columns_from_jsonl`.  Both forms end in the same columns
    (:func:`_append_values` decides the value column's type), so a
    history has one representation whichever file it came from.
    Raises :class:`ValueError` starting with
    ``<path>:`` (``<path>:<line>:`` for JSONL) for undecodable content
    and for a transaction id that occurs twice; both forms look for the
    repeat once the file has decoded (:func:`_first_repeat`), so any
    decode error is reported first.
    """
    with Path(path).open("rb") as handle:
        if handle.read(len(_PACK_FILE_MAGIC)) != _PACK_FILE_MAGIC:
            handle.seek(0)
            return columns_from_jsonl(map(bytes.decode, handle), where=f"{path}:")
        try:
            batch = _packed_columns(handle)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    repeat = _first_repeat(batch.tids)
    if repeat is not None:
        raise ValueError(f"{path}: duplicate transaction id {batch.tids[repeat]}")
    return batch
