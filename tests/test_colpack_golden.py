"""Golden bytes: the columnar value codec pinned from outside.

``tests/data/colpack_golden.json`` holds the hex of :func:`pack_columnar`
and of :func:`encode_segment` over one batch whose op values use every
value tag of :mod:`repro.core.colpack` — ``None``, both bools, an int in
and out of ``i64``, an ``IntEnum``, a ``str`` subclass, a float, a str,
⊥, a dict, a top-level tuple whose items take every inline tag (a nested
list and a dict among them) and a top-level list.  Wire frames, packed
history files and spill segments are these bytes, so a refactor of the
codec must reproduce them exactly and decode them to the same values,
of the same types.

Regenerate (only when a format change is intended)::

    PYTHONPATH=src python tests/test_colpack_golden.py
"""

from __future__ import annotations

import enum
import json
from pathlib import Path
from typing import Any, Dict, List

from repro.core.colpack import pack_columnar, unpack_columnar
from repro.core.segments import decode_segment, encode_segment
from repro.histories.model import BOTTOM, Operation, OpKind, Transaction

GOLDEN_PATH = Path(__file__).parent / "data" / "colpack_golden.json"


class _Color(enum.IntEnum):
    RED = 7


class _Name(str):
    pass


_BIG = 1 << 70

#: The op values, one per op, in op order.
VALUES: List[Any] = [
    None,
    True,
    False,
    -42,
    _BIG,
    _Color.RED,
    _Name("subclassed"),
    2.5,
    "héllo",
    BOTTOM,
    {"a": [1, 2], "$": None},
    (["n", 1], {"b": 2}, 3, None, True, False, -_BIG, 0.25, "s", BOTTOM, _Color.RED),
    [4, "five"],
]

#: What every value decodes back to: subclasses lose their class, a
#: top-level sequence is a shallow tuple, a nested one a list.
DECODED: List[Any] = [
    None,
    True,
    False,
    -42,
    _BIG,
    7,
    "subclassed",
    2.5,
    "héllo",
    BOTTOM,
    {"a": [1, 2], "$": None},
    (["n", 1], {"b": 2}, 3, None, True, False, -_BIG, 0.25, "s", BOTTOM, 7),
    (4, "five"),
]

_KINDS = (OpKind.WRITE, OpKind.READ, OpKind.APPEND)


def golden_transactions() -> List[Transaction]:
    ops = [
        Operation(_KINDS[index % len(_KINDS)], f"k{index % 4}é", value)
        for index, value in enumerate(VALUES)
    ]
    ops.append(Operation(OpKind.READ_LIST, "list", (1, 2)))
    return [
        Transaction(tid=1, sid=1, sno=0, ops=ops[:6], start_ts=10, commit_ts=20),
        Transaction(tid=2, sid=2, sno=0, ops=ops[6:], start_ts=-5, commit_ts=1 << 40),
    ]


def golden_segment() -> bytes:
    n = len(VALUES)
    versions = (
        ["a", "bé"],
        [n - 3, 3],
        list(range(100, 100 + n)),
        list(range(n)),
        list(VALUES),
        [1000 + index for index in range(n)],
    )
    return encode_segment(-1, 1 << 40, versions)


def record() -> Dict[str, str]:
    return {
        "pack_columnar": pack_columnar(golden_transactions()).hex(),
        "encode_segment": golden_segment().hex(),
    }


def _golden() -> Dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def _same(decoded: List[Any], expected: List[Any]) -> None:
    assert decoded == expected
    assert [type(value) for value in decoded] == [type(value) for value in expected]
    for got, want in zip(decoded, expected):
        if type(want) is tuple:
            assert [type(item) for item in got] == [type(item) for item in want]


def test_pack_columnar_bytes_are_pinned():
    assert pack_columnar(golden_transactions()).hex() == _golden()["pack_columnar"]


def test_pinned_pack_decodes_to_the_values():
    blob = bytes.fromhex(_golden()["pack_columnar"])
    batch, end = unpack_columnar(blob)
    assert end == len(blob)
    assert list(batch.tids) == [1, 2]
    assert list(batch.commits) == [20, 1 << 40]
    assert bytes(batch.op_kinds) == bytes([1, 0, 2, 1, 0, 2, 1, 0, 2, 1, 0, 2, 1, 3])
    _same(list(batch.op_values), DECODED + [(1, 2)])


def test_encode_segment_bytes_are_pinned():
    assert golden_segment().hex() == _golden()["encode_segment"]


def test_pinned_segment_decodes_to_the_values():
    segment = decode_segment(bytes.fromhex(_golden()["encode_segment"]))
    keys, counts, commits, starts, values, tids = segment.versions
    assert (segment.min_ts, segment.max_ts) == (-1, 1 << 40)
    assert (keys, counts) == (["a", "bé"], [len(VALUES) - 3, 3])
    assert tids == [1000 + index for index in range(len(VALUES))]
    _same(values, DECODED)


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(record(), indent=2) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
