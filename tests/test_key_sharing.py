"""One object per distinct op key, wherever a history is decoded.

``json`` returns a new ``str`` for every string it decodes, so a history
of N operations over K keys used to hold N key objects.  Each decode
call now keeps a local memo and every later op references the first
object of its key: a history file, a JSONL text, one ndjson submit and
one packed file (across its chunks) each end with K objects.  The memo
dies with the call — there is no table to outlive a load.
"""

from __future__ import annotations

import gc
import json
import tracemalloc
from array import array

import pytest

from repro.core.chronos import Chronos
from repro.histories.model import Transaction
from repro.histories.ops import write
from repro.histories.serialization import (
    columns_from_rows,
    history_from_jsonl,
    load_columns,
    load_history,
    load_history_packed,
    save_history,
    save_history_packed,
)
from repro.workloads.generator import generate_default_history
from repro.workloads.spec import WorkloadSpec

#: The ladder's Fig-12b shape and size (24 sessions, 8 ops per
#: transaction, 1,000 zipfian keys, half reads, 20,000 transactions).
N_TXNS = 20_000


@pytest.fixture(scope="module")
def ladder_history():
    return generate_default_history(
        WorkloadSpec(
            n_sessions=24, n_transactions=N_TXNS, ops_per_txn=8, n_keys=1000,
            distribution="zipfian", read_ratio=0.5, seed=2025,
        )
    )


@pytest.fixture(scope="module")
def files(ladder_history, tmp_path_factory):
    root = tmp_path_factory.mktemp("keys")
    jsonl, packed = root / "h.jsonl", root / "h.rpch"
    save_history(ladder_history, jsonl)
    # 2,048-transaction chunks: ten key tables, one memo across them.
    save_history_packed(ladder_history, packed)
    return jsonl, packed


def _op_keys_of(history):
    return [op.key for txn in history for op in txn.ops]


def _decoders(jsonl, packed):
    text = jsonl.read_text()
    return {
        "load_columns(jsonl)": lambda: load_columns(jsonl).op_keys,
        "load_columns(rpch)": lambda: load_columns(packed).op_keys,
        "load_history": lambda: _op_keys_of(load_history(jsonl)),
        "load_history_packed": lambda: _op_keys_of(load_history_packed(packed)),
        "history_from_jsonl": lambda: _op_keys_of(history_from_jsonl(text)),
        "columns_from_rows": lambda: columns_from_rows(map(json.loads, text.splitlines())).op_keys,
    }


@pytest.mark.parametrize(
    "decoder",
    ["load_columns(jsonl)", "load_columns(rpch)", "load_history", "load_history_packed",
     "history_from_jsonl", "columns_from_rows"],
)
def test_one_object_per_distinct_key(files, ladder_history, decoder):
    keys = _decoders(*files)[decoder]()
    assert len(keys) == sum(len(txn.ops) for txn in ladder_history)
    assert len({id(key) for key in keys}) == len(set(keys)) > 900


def _traced(run):
    """``(result, bytes it holds, peak bytes above that)`` for ``run()``,
    traced from a collected heap."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = run()
        gc.collect()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held - before, peak - held


def test_traced_bytes_per_op(files):
    """What ``load_columns`` leaves allocated per operation of the
    20,000-transaction file: ~120 B with a key string per op, ~66 B with
    one per key, ~25 B once the integer columns (values included: this
    history's are all ints) are ``array('q')``, ~18 B now that they are
    ``array('i')`` while their values fit in 32 bits.  The gate sits
    between the last two; ``test_compact_columns.py`` holds the packed
    file to the same bound."""
    jsonl, _ = files
    batch, held, _ = _traced(lambda: load_columns(jsonl))
    n_ops = len(batch.op_keys)
    assert n_ops > 7 * N_TXNS
    assert type(batch.op_values) is array
    assert held / n_ops <= 19, f"{held / n_ops:.1f} B per op"


@pytest.mark.parametrize("form, bound", [("jsonl", 64), ("rpch", 96)])
def test_load_peak_per_transaction(files, form, bound):
    """What a load allocates above what it returns, per transaction: one
    2,048-row chunk being decoded, or one sort of the tid column — ~40 B
    for JSONL.  A packed chunk's decoded tuples are ~1.5 MB on their own
    (~80 B per transaction of this file, a constant at any size).  A set
    of every tid (the old duplicate check) cost ~171 B and ~162 B, and a
    packed file held two chunks at once."""
    path = dict(zip(["jsonl", "rpch"], files))[form]
    batch, _, above = _traced(lambda: load_columns(path))
    assert above / len(batch) <= bound, f"{above / len(batch):.1f} B per transaction"


def test_chronos_peak_per_transaction(files):
    """What ``Chronos().check`` allocates above the loaded batch, per
    transaction: the two index orders, the retained tids and one sort's
    list of packed keys at a time.  With an accepted-index list, a key
    list and an index copy per sort and a list of retained ``int`` s it
    was ~105 B."""
    batch = load_columns(files[0])
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = Chronos().check(batch)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert result.is_valid
    assert peak / len(batch) <= 80, f"{peak / len(batch):.1f} B per transaction"


def _fresh_keys_history(prefix):
    """1,000 transactions over 1,000 keys no other test decodes."""
    return [
        Transaction(
            tid, 1, tid - 1, [write(f"{prefix}{(tid * 7 + j) % 1000}", tid) for j in range(8)],
            2 * tid, 2 * tid + 1,
        )
        for tid in range(1, 1001)
    ]


@pytest.mark.parametrize(
    "save, load",
    [(save_history, lambda path: load_columns(path).op_keys),
     (save_history_packed, lambda path: load_columns(path).op_keys),
     (save_history, lambda path: _op_keys_of(load_history(path)))],
    ids=["load_columns(jsonl)", "load_columns(rpch)", "load_history"],
)
def test_no_table_outlives_a_load(tmp_path, request, save, load):
    """Once the decoded history is dropped, traced memory is back where
    it started: the memo went with the call.  A table kept past the call
    would hold the measured file's 1,000 keys, never seen before it
    (the first load, of other keys, takes the first-call allocations)."""
    warm, cold = tmp_path / "warm", tmp_path / "cold"
    for path in (warm, cold):
        save(_fresh_keys_history(f"{request.node.name}-{path.name}-"), path)
    load(warm)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        keys = load(cold)
        assert len(set(map(id, keys))) == 1000
        del keys
        gc.collect()
        left = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert left < 4096, f"{left} B left after the load was dropped"
