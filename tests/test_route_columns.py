"""The one derivation the online kernel trusts, and its one entry rule.

``Aion.receive_many`` routes columns only: a list of transactions is
flattened with ``ColumnarBatch.from_transactions`` at entry, and the
route pass derives each transaction's external reads, final writes and
INT mismatches in one walk of its ops.  The baselines and
``db/faults.py`` still read the views ``Transaction`` computes when
they are read (``external_reads``, ``last_writes``), so the two
derivations are pinned to each other here — what a one-transaction
batch leaves in the tracker and the frontier, and the INT reports it
makes — over random register transactions dense in repeated reads,
read-after-write and write-after-read on one key.  The second half checks that every shape
of input ``receive_many`` accepts — a generator, a tuple, a list, a
``ColumnarBatch`` — gives the same ordered reports, ``processed`` and
kernel counters.
"""

from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.aion import Aion, AionConfig
from repro.core.aion_ser import AionSer
from repro.core.colpack import ColumnarBatch
from repro.core.ext_status import REC_SNAPSHOT_TS, record_keys
from repro.core.sharded import ShardedAion
from repro.histories.model import OpKind, Transaction
from repro.histories.ops import read, write

from test_differential import session_respecting_shuffle, small_history

INF = AionConfig(timeout=float("inf"))

# Three keys and four values: most generated transactions touch a key
# more than once, and repeated reads both agree and disagree.
OPS = st.lists(
    st.tuples(st.booleans(), st.sampled_from("abc"), st.integers(0, 3)).map(
        lambda op: (write if op[0] else read)(op[1], op[2])
    ),
    max_size=12,
)


def int_model(ops):
    """INT by definition: a read must return the value of the latest
    earlier op on its key in the same transaction, if there is one."""
    mismatches = []
    for index, op in enumerate(ops):
        earlier = [prior for prior in ops[:index] if prior.key == op.key]
        if op.kind is OpKind.READ and earlier and earlier[-1].value != op.value:
            mismatches.append((op.key, earlier[-1].value, op.value))
    return mismatches or None


@pytest.mark.parametrize("checker_class", [Aion, AionSer], ids=["aion", "ser"])
@settings(max_examples=300, deadline=None)
@given(ops=OPS)
@example(ops=[read("a", 1), read("a", 1), read("a", 2)])  # repeated reads
@example(ops=[write("a", 1), read("a", 1), read("a", 2)])  # read after write
@example(ops=[read("a", 0), write("a", 1), write("a", 2), read("b", 3)])  # write after read
def test_route_pass_matches_transaction_views(checker_class, ops):
    txn = Transaction(7, 1, 0, ops, 10, 20)
    checker = checker_class(INF, clock=lambda: 0.0)
    checker.receive_many([txn])
    # The INT reports, in program order (the session is in order).
    reports = [(v.key, v.expected, v.actual) for v in checker.poll()]
    assert reports == (int_model(txn.ops) or [])
    # The tracked external reads: one record — ``[tid, snapshot_ts, *keys,
    # *actual, ...]`` — holding each key and the value its read observed.
    records = list(checker._ext._txns.values())
    assert len(records) == (1 if txn.external_reads else 0)
    tracked = [
        pair
        for record in records
        for keys in [record_keys(record)]
        for pair in zip(keys, record[REC_SNAPSHOT_TS + 1 + len(keys) :])
    ]
    assert tracked == [(key, op.value) for key, op in txn.external_reads.items()]
    # The installed versions: each written key's final value, at commit.
    frontier = checker._frontier
    installed = {key: frontier.latest_at(key, 20) for key in frontier._by_key}
    assert installed == {key: (20, value, 7) for key, value in txn.last_writes.items()}
    checker.close()

CHECKERS = {
    "aion": lambda: Aion(INF, clock=lambda: 0.0),
    "ser": lambda: AionSer(INF, clock=lambda: 0.0),
    "sharded": lambda: ShardedAion(INF, n_shards=2, clock=lambda: 0.0),
}

COUNTERS = (
    "batches", "txns", "max_batch", "route_ops", "probe_reads", "probe_writes",
    "verdict_tracks", "verdict_reevals", "verdict_conflicts",
)

SHAPES = {
    "generator": lambda batch: (txn for txn in batch),
    "tuple": tuple,
    "list": list,
    "columnar": ColumnarBatch.from_transactions,
}


@pytest.mark.parametrize("kind", sorted(CHECKERS))
def test_every_input_shape_gives_the_same_run(kind):
    history = small_history(41, n=150, faults=6)
    arrival = session_respecting_shuffle(history, Random(41))

    def run(shape):
        checker = CHECKERS[kind]()
        try:
            polls = []
            for offset in range(0, len(arrival), 17):
                checker.receive_many(SHAPES[shape](arrival[offset : offset + 17]))
                polls.append(checker.poll())
            stats = checker.kernel_stats.as_dict()
            return (
                polls,
                list(checker.finalize().violations),
                checker.processed,
                [stats[name] for name in COUNTERS],
            )
        finally:
            checker.close()

    expected = run("list")
    assert expected[1], "the faulted stream must produce verdicts to compare"
    for shape in ("generator", "tuple", "columnar"):
        assert run(shape) == expected, shape
