"""One object per distinct op key, wherever a history is decoded or produced.

``json`` returns a new ``str`` for every string it decodes, so a history
of N operations over K keys used to hold N key objects.  Each decode
call now keeps a local memo and every later op references the first
object of its key: a history file, a JSONL text, one row list and one
packed file (across its chunks) each end with K objects.  The memo
dies with the call — there is no table to outlive a load.  A daemon
connection keeps one memo across all its submit frames and drops it at
disconnect, and a WAL tailer one across all its polls.

The producer keeps the same rule: the simulated database swaps each op
key for the first object it saw equal to it, so a generated history —
whatever workload formatted its keys — holds K key objects too.
"""

from __future__ import annotations

import gc
import json
import tracemalloc
from array import array

import pytest

from repro.core.chronos import Chronos
from repro.db.cdc import WalTailer, iter_wal_file, parse_wal, wal_line
from repro.db.engine import Database
from repro.db.faults import SkewedOracle
from repro.db.oracle import CentralizedOracle
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
from repro.service.client import CheckerClient
from repro.service.config import ServiceConfig
from repro.service.daemon import ServiceThread
from repro.workloads.driver import InterleavedDriver, TxnProgram
from repro.workloads.generator import generate_default_history
from repro.workloads.list_workload import generate_list_history
from repro.workloads.rubis import generate_rubis_history
from repro.workloads.spec import WorkloadSpec
from repro.workloads.tpcc import generate_tpcc_history
from repro.workloads.twitter import generate_twitter_history

#: The ladder's Fig-12b shape and size (24 sessions, 8 ops per
#: transaction, 1,000 zipfian keys, half reads, 20,000 transactions).
N_TXNS = 20_000


@pytest.fixture(scope="module")
def generated():
    """The ladder-shape history and the bytes it holds, traced while the
    simulated database produced it."""
    history, held, _ = _traced(
        lambda: generate_default_history(
            WorkloadSpec(
                n_sessions=24, n_transactions=N_TXNS, ops_per_txn=8, n_keys=1000,
                distribution="zipfian", read_ratio=0.5, seed=2025,
            )
        )
    )
    return history, held


@pytest.fixture(scope="module")
def ladder_history(generated):
    return generated[0]


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


def _submit_in_batches(client: CheckerClient, txns) -> None:
    for lo in range(0, len(txns), 50):
        client.submit_many(txns[lo : lo + 50])


def _submit_pipelined(client: CheckerClient, txns) -> None:
    client.submit_pipelined(txns, batch_size=50, window=4)


@pytest.mark.parametrize(
    "submit", [_submit_in_batches, _submit_pipelined], ids=["submit_many", "pipelined"]
)
def test_one_object_per_key_per_daemon_connection(submit):
    """Every submit of one connection decodes its keys to the objects
    its first submit did (the checker holds those already), whether the
    frames go one ack at a time or pipelined; a second connection starts
    a memo of its own."""
    txns = _fresh_keys_history("conn-")
    handle = ServiceThread(ServiceConfig(port=0, timeout=float("inf"))).start()
    checker = handle.service.checker
    real = checker.receive_many
    seen = []

    def capture(batch):
        seen.append(list(batch.op_keys))
        return real(batch)

    checker.receive_many = capture
    try:
        per_connection = []
        for n_checked, half in ((500, txns[:500]), (1000, txns[500:])):
            client = CheckerClient(*handle.tcp_address)
            client.connect()
            with client:
                submit(client, half)
                assert client.drain() == n_checked
            per_connection.append([key for keys in seen for key in keys])
            seen.clear()
    finally:
        handle.stop()
    for keys in per_connection:
        assert len(keys) == 500 * 8
        assert len({id(key) for key in keys}) == len(set(keys)) == 1000


# ----------------------------------------------------------------------
# The producer side: the simulated database and its WAL readers
# ----------------------------------------------------------------------


def _assert_one_object_per_key(keys):
    assert len({id(key) for key in keys}) == len(set(keys)) > 1


#: Every ``repro generate`` workload, at 300 transactions.
GENERATORS = {
    "default": lambda: generate_default_history(
        WorkloadSpec(n_sessions=24, n_transactions=300, ops_per_txn=8, n_keys=200, seed=7)
    ),
    "list": lambda: generate_list_history(
        WorkloadSpec(n_sessions=24, n_transactions=300, ops_per_txn=8, n_keys=200, seed=7)
    ),
    "twitter": lambda: generate_twitter_history(300, seed=7),
    "rubis": lambda: generate_rubis_history(300, seed=7),
    "tpcc": lambda: generate_tpcc_history(300, seed=7),
}


def _assert_one_object_per_code_pattern(txns):
    codes = [txn.codes for txn in txns]
    assert len({id(pattern) for pattern in codes}) == len(set(codes)) > 1


def test_ladder_history_holds_one_codes_object_per_pattern(ladder_history):
    """The ladder-shape history's 20,001 transactions have a few hundred
    op-code patterns; the database records one ``bytes`` per pattern."""
    _assert_one_object_per_code_pattern(ladder_history)


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_generated_history_holds_one_codes_object_per_pattern(workload):
    _assert_one_object_per_code_pattern(GENERATORS[workload]())


@pytest.mark.parametrize("decoder", ["load_history", "load_history_packed", "history_from_jsonl"])
def test_materialized_transactions_share_code_patterns(files, decoder):
    """:meth:`ColumnarBatch.transactions` shares each pattern's ``bytes``
    among the transactions of one call."""
    jsonl, packed = files
    load = {
        "load_history": lambda: load_history(jsonl),
        "load_history_packed": lambda: load_history_packed(packed),
        "history_from_jsonl": lambda: history_from_jsonl(jsonl.read_text()),
    }[decoder]
    _assert_one_object_per_code_pattern(load())


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_generated_history_holds_one_object_per_key(workload):
    """Each workload formats a fresh ``str`` per step (``key_name``, the
    application f-strings); the database records the first one it saw."""
    _assert_one_object_per_key(_op_keys_of(GENERATORS[workload]()))


def _chaos_database():
    """A database driven as the chaos campaign drives it: a subscriber
    armed before ⊥T, ⊥T from a generator of keys, a skewed oracle, and a
    factory that formats each key again per step.  Returns the database
    and the transactions its subscriber was handed."""
    shipped = []
    database = Database(SkewedOracle(CentralizedOracle(), probability=0.2, stride=16))
    database.cdc.subscribe(shipped.append)
    database.initialize(f"k{i}" for i in range(12))

    def factory(_sid, rng):
        program = TxnProgram()
        for _ in range(rng.randint(2, 4)):
            key = f"k{rng.randrange(12)}"
            if rng.random() < 0.5:
                program.read(key)
            else:
                program.write(key, rng.randrange(1_000_000))
        return program

    InterleavedDriver(database, 4, seed=21).run(factory, 400)
    return database, shipped


def test_database_shares_keys_with_its_store_and_log():
    """Recorded ops, the version store's chains and what a subscriber
    is handed all hold the same 12 objects."""
    database, shipped = _chaos_database()
    keys = _op_keys_of(database.cdc) + _op_keys_of(shipped) + database.store.keys()
    assert len({id(key) for key in keys}) == len(set(keys)) == 12


def _wal_readers(database, tmp_path):
    path = tmp_path / "wal.log"
    database.cdc.save_wal(path)
    lines = list(database.cdc.wal_lines())

    def tailed():
        """Two polls of one tailer, the second over lines appended after
        the first."""
        live = tmp_path / "live.wal"
        tailer = WalTailer(live)
        half = len(lines) // 2
        live.write_text("".join(line + "\n" for line in lines[:half]))
        first = tailer.poll()
        with live.open("a") as handle:
            handle.writelines(line + "\n" for line in lines[half:])
        return first + tailer.poll()

    return {
        "parse_wal": lambda: list(parse_wal(lines)),
        "iter_wal_file": lambda: list(iter_wal_file(path)),
        "WalTailer": tailed,
    }


@pytest.mark.parametrize("reader", ["parse_wal", "iter_wal_file", "WalTailer"])
def test_wal_readers_share_keys(tmp_path, reader):
    database, _ = _chaos_database()
    txns = _wal_readers(database, tmp_path)[reader]()
    assert list(map(wal_line, txns)) == list(database.cdc.wal_lines())
    _assert_one_object_per_key(_op_keys_of(txns))


def test_generated_bytes_per_transaction(generated):
    """What the 20,000-transaction ladder-shape history holds once
    generated, per transaction: ~1,338 B with the workload's fresh key
    ``str`` in every op (161,000 key objects for 1,000 keys), ~890 B
    with one object per key."""
    history, held = generated
    assert len({id(key) for key in _op_keys_of(history)}) == 1000
    assert held / len(history) <= 1000, f"{held / len(history):.0f} B per transaction"
