"""The one derivation the online kernel trusts, and its one entry rule.

``Aion.receive_many`` routes columns only: a list of transactions is
flattened with ``ColumnarBatch.from_transactions`` at entry, and the
route pass derives each transaction's external reads, final writes and
INT mismatches with ``kernel.resolve_columns``.  The baselines and
``db/faults.py`` still read the views ``Transaction.__init__``
precomputes (``external_reads``, ``last_writes``), so the two
derivations are pinned to each other here, over random register
transactions dense in repeated reads, read-after-write and
write-after-read on one key.  The second half checks that every shape
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
from repro.core.kernel import resolve_columns
from repro.core.sharded import ShardedAion
from repro.histories.model import OpKind, Transaction
from repro.histories.ops import read, write

from test_differential import session_respecting_shuffle, small_history

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


@settings(max_examples=300, deadline=None)
@given(ops=OPS)
@example(ops=[read("a", 1), read("a", 1), read("a", 2)])  # repeated reads
@example(ops=[write("a", 1), read("a", 1), read("a", 2)])  # read after write
@example(ops=[read("a", 0), write("a", 1), write("a", 2), read("b", 3)])  # write after read
def test_resolve_columns_matches_transaction_views(ops):
    txn = Transaction(7, 1, 0, ops, 10, 20)
    batch = ColumnarBatch.from_transactions([txn])
    external, writes, mismatches = resolve_columns(
        batch.op_kinds, batch.op_keys, batch.op_values, 0, len(ops)
    )
    assert external == [(key, op.value) for key, op in txn.external_reads.items()]
    assert list(writes.items()) == list(txn.last_writes.items())
    assert mismatches == int_model(txn.ops)


INF = AionConfig(timeout=float("inf"))

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
