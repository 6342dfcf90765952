"""The lean ``Transaction``: six fields, derived views computed when read.

``write_keys``, ``last_writes``, ``external_reads`` and ``is_read_only``
are properties that walk ``ops`` on every read and store nothing.  These
tests pin the layout (the slots and the bytes one transaction costs) and
hold each view, on the anomaly catalog and on generated register and
list histories, to :func:`eager_views` — the loop ``__init__`` used to
run once per transaction to precompute them.
"""

from __future__ import annotations

import tracemalloc
from typing import Any, Dict, Tuple

import pytest

from repro.db.faults import FaultInjector
from repro.histories.anomalies import ANOMALY_CATALOG
from repro.histories.model import History, Transaction
from repro.histories.ops import append, read, read_list, write
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
    assert Transaction.__slots__ == ("tid", "sid", "sno", "ops", "start_ts", "commit_ts")
    assert not hasattr(Transaction(1, 1, 0, (), 1, 2), "__dict__")


def test_eight_op_transaction_allocates_at_most_256_bytes():
    n = 1_000
    ops = [
        (read(f"k{i}", i), write(f"k{i}", i + 1), read(f"j{i}", 0), append(f"l{i}", i),
         read_list(f"l{i}", (i,)), write(f"j{i}", i), read(f"m{i}", 1), write(f"m{i}", 2))
        for i in range(n)
    ]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        txns = [
            Transaction(
                tid=1_000 + i, sid=i % 8 + 1, sno=i // 8, ops=ops[i],
                start_ts=10_000 + 2 * i, commit_ts=10_001 + 2 * i,
            )
            for i in range(n)
        ]
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(txns) == n
    assert held / n <= 256, f"{held / n:.0f} B per transaction"


@pytest.mark.parametrize("name", sorted(HISTORIES))
def test_views_read_on_demand_equal_the_eager_loop(name):
    for txn in HISTORIES[name]:
        write_keys, last_writes, external_reads = eager_views(txn)
        assert type(txn.write_keys) is frozenset
        assert txn.write_keys == write_keys
        # Same entries in the same (program) order.
        assert list(txn.last_writes.items()) == list(last_writes.items())
        assert list(txn.external_reads.items()) == list(external_reads.items())
        assert all(txn.external_reads[key] is op for key, op in external_reads.items())
        assert txn.is_read_only is (not write_keys)


def test_views_are_fresh_on_every_read():
    txn = Transaction(1, 1, 0, (read("a", 0), write("a", 1)), 1, 2)
    assert txn.last_writes is not txn.last_writes
    txn.last_writes["a"] = 99  # a caller's edit of its copy changes nothing
    assert txn.last_writes == {"a": 1}
