"""A loaded history keeps its integer columns in the narrowest machine words.

``load_columns`` (either file form) and ``columns_from_rows`` return
header columns, op offsets and — while every value is a plain 64-bit
``int`` — a value column that are ``array('i')`` until a 2,048-row chunk
holds a value past 32 bits, which turns that column (and only that one)
into an ``array('q')``.  The first chunk holding a non-int or a value
past 64 bits turns the value column into a list for good, and nothing
read back may differ from what the object decoder builds — in value
*or* type: a ``True`` is never a ``1``.
"""

from __future__ import annotations

import gc
import json
import tracemalloc
from array import array

import pytest

from repro.cli import main
from repro.core.chronos import Chronos
from repro.db.faults import FaultInjector
from repro.histories.model import History
from repro.histories.serialization import (
    _PACK_CHUNK,
    columns_from_rows,
    load_columns,
    save_history,
    save_history_packed,
    txn_from_dict,
)

_INT_COLUMNS = ("tids", "sids", "snos", "starts", "commits", "op_offsets")
_COLUMNS = _INT_COLUMNS + ("op_kinds", "op_keys", "op_values")


def _int_rows(n: int):
    """``n`` register transactions over 1,000 keys, every value an int."""
    return [
        {
            "tid": tid, "sid": 1 + tid % 24, "sno": tid // 24, "sts": 10 * tid, "cts": 10 * tid + 7,
            "ops": [["w" if j % 2 else "r", f"k{(tid * 7 + j) % 1000}", tid * 8 + j - 3] for j in range(8)],
        }
        for tid in range(n)
    ]


def _files(tmp_path, rows):
    jsonl, packed = tmp_path / "h.jsonl", tmp_path / "h.rpch"
    jsonl.write_text("".join(json.dumps(row) + "\n" for row in rows))
    save_history_packed(History([txn_from_dict(row) for row in rows]), packed)
    return jsonl, packed


def _typed(values):
    return [(type(value), value) for value in values]


def _reference_values(rows):
    return [op.value for row in rows for op in txn_from_dict(row).ops]


def _typecodes(batch):
    return {
        name: getattr(batch, name).typecode if type(getattr(batch, name)) is array else "list"
        for name in _INT_COLUMNS + ("op_values",)
    }


def _reference_columns(rows):
    txns = [txn_from_dict(row) for row in rows]
    return {
        "tids": [t.tid for t in txns], "sids": [t.sid for t in txns],
        "snos": [t.sno for t in txns], "starts": [t.start_ts for t in txns],
        "commits": [t.commit_ts for t in txns],
    }


def test_small_int_history_is_four_byte_words(tmp_path):
    rows = _int_rows(_PACK_CHUNK + 500)
    for batch in (columns_from_rows(rows), *map(load_columns, _files(tmp_path, rows))):
        assert set(_typecodes(batch).values()) == {"i"}
        assert _typed(batch.op_values) == _typed(_reference_values(rows))


#: One field of one row in the second chunk set past 32 bits, and the
#: column that must widen for it.
WIDE = {
    "tid": ("tids", lambda row: row.update(tid=2**31 + 7)),
    "sid": ("sids", lambda row: row.update(sid=-(2**31) - 1)),
    "sno": ("snos", lambda row: row.update(sno=2**40)),
    "sts": ("starts", lambda row: row.update(sts=-(2**33))),
    "cts": ("commits", lambda row: row.update(cts=2**62)),
    "value": ("op_values", lambda row: row["ops"][1].__setitem__(2, 2**31)),
    "negative value": ("op_values", lambda row: row["ops"][1].__setitem__(2, -(2**31) - 1)),
}


@pytest.mark.parametrize("field", list(WIDE))
def test_a_later_chunk_widens_only_its_column(tmp_path, field):
    """The first chunk goes into ``'i'`` columns; one value past 32 bits
    in the second turns that column into ``'q'``, the others stay ``'i'``,
    and every value reads back as the object decoder has it."""
    column, widen = WIDE[field]
    rows = _int_rows(_PACK_CHUNK + 300)
    widen(rows[_PACK_CHUNK + 40])
    expected = {**_reference_columns(rows), "op_values": _reference_values(rows)}
    for batch in (columns_from_rows(rows), *map(load_columns, _files(tmp_path, rows))):
        assert _typecodes(batch) == {
            name: "q" if name == column else "i" for name in _INT_COLUMNS + ("op_values",)
        }
        for name, values in expected.items():
            assert _typed(getattr(batch, name)) == _typed(values), name


def test_fits_in_32_bits_is_inclusive():
    rows = _int_rows(10)
    rows[3].update(tid=2**31 - 1, sts=-(2**31), cts=2**31 - 1)
    rows[3]["ops"][0][2] = -(2**31)
    assert set(_typecodes(columns_from_rows(rows)).values()) == {"i"}


SPECIAL = {
    "true": True,
    "false": False,
    "null": None,
    "float": 1.5,
    "string": "s",
    "list": [1, [2]],
    "dict": {"a": 1},
    "past-i64": 2**70,
    "i64-max+1": 2**63,
}


@pytest.mark.parametrize(
    "specials", [[value] for value in SPECIAL.values()] + [list(SPECIAL.values())],
    ids=list(SPECIAL) + ["all"],
)
def test_a_later_chunk_turns_the_value_column_into_a_list(tmp_path, specials):
    """The first chunk is all int and goes into an array; a later chunk's
    odd value turns the column into a list.  Every value read back equals
    the object decoder's in value and type, whichever file form."""
    rows = _int_rows(_PACK_CHUNK + 300)
    for offset, value in enumerate(specials):
        rows[_PACK_CHUNK + 40 + offset]["ops"][1][2] = value
    expected = _typed(_reference_values(rows))
    for batch in (columns_from_rows(rows), *map(load_columns, _files(tmp_path, rows))):
        assert type(batch.op_values) is list
        assert _typed(batch.op_values) == expected
        assert {_typecodes(batch)[name] for name in _INT_COLUMNS} == {"i"}


def test_an_odd_first_chunk_keeps_every_value_as_decoded(tmp_path):
    rows = _int_rows(300)
    rows[5]["ops"][0][2] = True
    rows[6]["ops"][0][2] = 1
    for batch in (columns_from_rows(rows), *map(load_columns, _files(tmp_path, rows))):
        assert _typed(batch.op_values) == _typed(_reference_values(rows))
        assert batch.op_values[rows[5]["tid"] * 8] is True


@pytest.mark.parametrize("history_name", ["si_history", "list_history"])
def test_both_file_forms_give_equal_columns(tmp_path, request, history_name):
    history = request.getfixturevalue(history_name)
    jsonl, packed = tmp_path / "h.jsonl", tmp_path / "h.rpch"
    save_history(history, jsonl)
    save_history_packed(history, packed, chunk_size=300)
    from_jsonl, from_packed = load_columns(jsonl), load_columns(packed)
    assert _typecodes(from_jsonl) == _typecodes(from_packed)
    for name in _COLUMNS:
        a, b = getattr(from_jsonl, name), getattr(from_packed, name)
        assert type(a) is type(b), name
        assert _typed(a) == _typed(b), name
    # A list history's read-list values are tuples: its value column is a list.
    assert type(from_jsonl.op_values) is (list if history_name == "list_history" else array)


@pytest.mark.parametrize("history_name", ["si_history", "list_history"])
def test_check_reports_are_equal_across_representations(tmp_path, request, capsys, history_name):
    """``repro check`` prints the same lines after its headline for the
    JSONL and the packed file, and they are what ``Chronos`` reports on
    the objects (list columns)."""
    injector = FaultInjector(request.getfixturevalue(history_name), seed=11)
    injector.inject_mix(8)
    history = injector.build()
    jsonl, packed = tmp_path / "bad.jsonl", tmp_path / "bad.rpch"
    save_history(history, jsonl)
    save_history_packed(history, packed, chunk_size=300)
    outputs = []
    for path in (jsonl, packed):
        assert main(["check", str(path), "--max-report", "100000"]) == 1
        outputs.append(capsys.readouterr().out.splitlines()[1:])
    assert outputs[0] == outputs[1]
    result = Chronos().check(history)
    assert outputs[0] == [result.summary()] + [f"  {v.describe()}" for v in result.violations]


def test_packed_file_keeps_at_most_32_bytes_per_op(tmp_path):
    """The packed twin of ``test_key_sharing.py::test_traced_bytes_per_op``."""
    _, packed = _files(tmp_path, _int_rows(5_000))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        batch = load_columns(packed)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert type(batch.op_values) is array
    assert retained / len(batch.op_keys) <= 32, f"{retained / len(batch.op_keys):.1f} B per op"
