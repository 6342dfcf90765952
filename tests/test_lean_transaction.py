"""The lean ``Transaction``: six fields, ops kept as three columns,
derived views computed when read.

The constructor takes six fields; the ops are stored as an op-code
``bytes``, a key tuple and a value tuple, and ``ops`` builds the
:class:`Operation` tuple from them when read.  ``write_keys``,
``last_writes``, ``external_read_positions`` and ``is_read_only`` are
properties that walk the columns on every read and store nothing.
These tests pin the layout (the slots and the bytes one transaction
costs, its operations included) and hold each view, on the anomaly
catalog and on generated register and list histories, to
:func:`eager_views` — the loop ``__init__`` used to run once per
transaction to precompute them.
"""

from __future__ import annotations

import json
import tracemalloc
from typing import Any, Dict, List, Tuple

import pytest

from repro.core.colpack import ColumnarBatch
from repro.db.faults import FaultInjector
from repro.histories.anomalies import ANOMALY_CATALOG
from repro.histories.model import History, Operation, OpKind, Transaction
from repro.histories.ops import append, read, read_list, write
from repro.histories.serialization import (
    load_columns,
    load_history,
    save_history,
    txn_from_dict,
    txn_to_dict,
)
from repro.workloads.generator import generate_default_history
from repro.workloads.list_workload import generate_list_history
from repro.workloads.spec import WorkloadSpec


def eager_views(txn: Transaction) -> Tuple[frozenset, Dict[str, Any], Dict[str, Any]]:
    """``(write_keys, last_writes, external_reads)`` as ``Transaction``
    built them eagerly, one pass in its constructor."""
    write_keys: set = set()
    last_writes: Dict[str, Any] = {}
    external_reads: Dict[str, Any] = {}
    touched: set = set()
    for op in txn.ops:
        if op.is_write:
            write_keys.add(op.key)
            last_writes[op.key] = op.value
            touched.add(op.key)
        else:
            if op.key not in touched:
                external_reads[op.key] = op
                touched.add(op.key)
    return frozenset(write_keys), last_writes, external_reads


def histories() -> Dict[str, History]:
    out = {f"catalog/{name}": spec.build() for name, spec in sorted(ANOMALY_CATALOG.items())}
    register = generate_default_history(
        WorkloadSpec(n_sessions=6, n_transactions=300, ops_per_txn=8, n_keys=30, seed=5)
    )
    listed = generate_list_history(
        WorkloadSpec(n_sessions=5, n_transactions=200, ops_per_txn=8, n_keys=15, seed=6)
    )
    out["register"], out["list"] = register, listed
    for name, history in (("register", register), ("list", listed)):
        injector = FaultInjector(history, seed=9)
        injector.inject_mix(10)
        out[f"{name}/faulted"] = injector.build()
    return out


HISTORIES = histories()


def test_six_slots():
    """The six constructor fields, the ops stored as three columns."""
    assert Transaction.__slots__ == (
        "tid", "sid", "sno", "codes", "keys", "values", "start_ts", "commit_ts"
    )
    assert not hasattr(Transaction(1, 1, 0, (), 1, 2), "__dict__")


def test_eight_op_transaction_allocates_at_most_600_bytes():
    """A transaction together with its operations: the ops are built
    inside the traced region (their keys, one object per distinct key as
    every producer keeps them, outside).  ~828 B with a tuple of eight
    ``Operation`` objects, ~540 B as three columns."""
    n = 1_000
    keys = [(f"k{i}", f"j{i}", f"l{i}", f"m{i}") for i in range(n)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        txns = [
            Transaction(
                tid=1_000 + i, sid=i % 8 + 1, sno=i // 8,
                ops=(read(k, i), write(k, i + 1), read(j, 0), append(l, i),
                     read_list(l, (i,)), write(j, i), read(m, 1), write(m, 2)),
                start_ts=10_000 + 2 * i, commit_ts=10_001 + 2 * i,
            )
            for i, (k, j, l, m) in enumerate(keys)
        ]
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(txns) == n
    assert held / n <= 600, f"{held / n:.0f} B per transaction"


@pytest.mark.parametrize("name", sorted(HISTORIES))
def test_views_read_on_demand_equal_the_eager_loop(name):
    for txn in HISTORIES[name]:
        write_keys, last_writes, external_reads = eager_views(txn)
        assert type(txn.write_keys) is frozenset
        assert txn.write_keys == write_keys
        # Same entries in the same (program) order.
        assert list(txn.last_writes.items()) == list(last_writes.items())
        # The same keys in the same order, each at its read's position.
        positions = txn.external_read_positions
        assert list(positions) == list(external_reads)
        ops = txn.ops
        assert all(ops[positions[key]] == op for key, op in external_reads.items())
        assert txn.is_read_only is (not write_keys)


def test_views_are_fresh_on_every_read():
    txn = Transaction(1, 1, 0, (read("a", 0), write("a", 1)), 1, 2)
    assert txn.last_writes is not txn.last_writes
    txn.last_writes["a"] = 99  # a caller's edit of its copy changes nothing
    assert txn.last_writes == {"a": 1}


# ----------------------------------------------------------------------
# Flattening: a join of the transactions' columns
# ----------------------------------------------------------------------

#: The columnar format's op codes, written out (``test_colpack_golden.py``
#: pins the same bytes on the wire).
KIND_BYTE = {OpKind.READ: 0, OpKind.WRITE: 1, OpKind.APPEND: 2, OpKind.READ_LIST: 3}


def reference_flatten(txns: List[Transaction]) -> Dict[str, list]:
    """The columns of a batch of ``txns``, built op by op from ``txn.ops``."""
    columns: Dict[str, list] = {
        name: [] for name in ("tids", "sids", "snos", "starts", "commits", "op_kinds",
                              "op_keys", "op_values")
    }
    columns["op_offsets"] = [0]
    for txn in txns:
        columns["tids"].append(txn.tid)
        columns["sids"].append(txn.sid)
        columns["snos"].append(txn.sno)
        columns["starts"].append(txn.start_ts)
        columns["commits"].append(txn.commit_ts)
        for op in txn.ops:
            columns["op_kinds"].append(KIND_BYTE[op.kind])
            columns["op_keys"].append(op.key)
            columns["op_values"].append(op.value)
        columns["op_offsets"].append(len(columns["op_keys"]))
    return columns


@pytest.mark.parametrize("name", sorted(HISTORIES) + ["empty"])
def test_from_transactions_equals_a_flatten_of_ops(name):
    txns = HISTORIES[name].transactions if name != "empty" else []
    batch = ColumnarBatch.from_transactions(txns)
    for column, expected in reference_flatten(txns).items():
        assert list(getattr(batch, column)) == expected, column
    assert type(batch.op_kinds) is bytes
    assert all(a is b for a, b in zip(batch.op_keys, (k for t in txns for k in t.keys)))


# ----------------------------------------------------------------------
# Producers that hold columns build no Operation
# ----------------------------------------------------------------------


@pytest.fixture
def operation_inits(monkeypatch) -> List[Operation]:
    """Every ``Operation`` constructed while the test runs."""
    built: List[Operation] = []
    real = Operation.__init__

    def counting(self, *args):
        built.append(self)
        real(self, *args)

    monkeypatch.setattr(Operation, "__init__", counting)
    return built


def _generated() -> History:
    return generate_default_history(
        WorkloadSpec(n_sessions=6, n_transactions=200, ops_per_txn=8, n_keys=30, seed=5)
    )


@pytest.fixture
def saved(tmp_path):
    path = tmp_path / "h.jsonl"
    save_history(HISTORIES["list/faulted"], path)
    return path


PRODUCERS = {
    "generate_default_history": lambda path: _generated(),
    "load_history": lambda path: load_history(path),
    "txn_from_dict": lambda path: History(
        txn_from_dict(json.loads(line)) for line in path.read_text().splitlines()
    ),
    "ColumnarBatch.transactions": lambda path: History(load_columns(path).transactions()),
}


@pytest.mark.parametrize("producer", sorted(PRODUCERS))
def test_producers_build_no_operation(producer, saved, operation_inits):
    history = PRODUCERS[producer](saved)
    assert operation_inits == []
    if producer != "generate_default_history":
        assert [txn_to_dict(t) for t in history] == [
            txn_to_dict(t) for t in HISTORIES["list/faulted"]
        ]
    # The counter sees the ``ops`` view build one Operation per op.
    assert len(history.get(1).ops) == len(operation_inits) > 0


def test_rescaled_transactions_share_their_source_columns():
    history = HISTORIES["register"]
    rescaled = FaultInjector(history, seed=9).build()
    for source, txn in zip(history, rescaled):
        assert txn.tid == source.tid
        assert txn.start_ts == source.start_ts * FaultInjector.SCALE
        assert txn.commit_ts == source.commit_ts * FaultInjector.SCALE
        assert txn.codes is source.codes
        assert txn.keys is source.keys
        assert txn.values is source.values
