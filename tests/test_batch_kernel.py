"""Differential tests: the staged batch kernel ≡ per-op dispatch.

``receive_many`` was rebuilt (PR 6) as a three-pass kernel — route the
batch into flat op arrays, probe the versioned structures, apply the
verdicts in arrival order — while ``receive`` keeps the original
per-transaction dispatch as the reference implementation.  These tests
pin the refactor's whole claim: for any history (clean, fault-injected,
or a textbook anomaly), any session-respecting arrival order, and any
batch partition of that order — including single-transaction batches and
batches straddling GC cycles — both paths yield the identical violation
multiset.  The kernel's per-stage counters are pinned too: they advance
deterministically with the routed work and never on the per-op path,
which is what lets the benchmark smoke gate catch a silent regression
back to per-op dispatch.
"""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aion import Aion, AionConfig
from repro.core.aion_ser import AionSer
from repro.core.colpack import pack_columnar, unpack_columnar
from repro.core.reference import normalize_violations
from repro.core.sharded import ShardedAion
from repro.histories.anomalies import ANOMALY_CATALOG

from test_differential import session_respecting_shuffle, small_history

INF = AionConfig(timeout=float("inf"))


def make_checker(kind):
    if kind == "aion":
        return Aion(INF, clock=lambda: 0.0)
    if kind == "aion-ablation":
        return Aion(
            AionConfig(timeout=float("inf"), optimized_recheck=False),
            clock=lambda: 0.0,
        )
    if kind == "ser":
        return AionSer(INF, clock=lambda: 0.0)
    assert kind == "sharded"
    return ShardedAion(INF, n_shards=3, clock=lambda: 0.0)


def per_op_verdicts(kind, txns, *, gc_every=None):
    """Reference: one transaction at a time through ``receive``.

    ShardedAion routes ``receive`` through the kernel as a batch of one,
    so its reference is single-shard per-op Aion instead.
    """
    checker = make_checker("aion" if kind == "sharded" else kind)
    for index, txn in enumerate(txns):
        checker.receive(txn)
        if gc_every is not None and index % gc_every == gc_every - 1:
            checker.collect_below(None)
    try:
        return normalize_violations(checker.finalize()), checker.processed
    finally:
        checker.close()


def kernel_verdicts(kind, txns, *, batch_size, gc_every=None):
    """Same arrival order, partitioned into ``batch_size`` batches.

    ``gc_every`` counts *transactions*, matching :func:`per_op_verdicts`
    boundaries whenever ``gc_every % batch_size == 0``.
    """
    checker = make_checker(kind)
    try:
        done = 0
        for offset in range(0, len(txns), batch_size):
            checker.receive_many(txns[offset : offset + batch_size])
            done = offset + batch_size
            if gc_every is not None and done % gc_every == 0:
                checker.collect_below(None)
        return normalize_violations(checker.finalize()), checker.processed
    finally:
        checker.close()


KINDS = ["aion", "aion-ablation", "ser", "sharded"]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", sorted(ANOMALY_CATALOG))
def test_kernel_matches_per_op_on_anomaly_catalog(kind, name):
    """Every textbook anomaly, every arrival order of its tiny history,
    every batch split: kernel ≡ per-op."""
    history = ANOMALY_CATALOG[name].build()
    for shuffle_seed in range(4):
        arrival = session_respecting_shuffle(history, Random(shuffle_seed))
        expected = per_op_verdicts(kind, arrival)
        for batch_size in (1, 2, len(arrival)):
            got = kernel_verdicts(kind, arrival, batch_size=batch_size)
            assert got == expected, (name, shuffle_seed, batch_size)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    shuffle_seed=st.integers(0, 10_000),
    faults=st.integers(0, 6),
    batch_size=st.sampled_from([1, 3, 17, 500]),
)
def test_kernel_matches_per_op_property(kind, seed, shuffle_seed, faults, batch_size):
    history = small_history(seed, faults=faults)
    arrival = session_respecting_shuffle(history, Random(shuffle_seed))
    expected = per_op_verdicts(kind, arrival)
    got = kernel_verdicts(kind, arrival, batch_size=batch_size)
    assert got == expected


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    shuffle_seed=st.integers(0, 10_000),
    batch_size=st.sampled_from([5, 20]),
    cycles=st.integers(1, 4),
)
def test_kernel_matches_per_op_straddling_gc(kind, seed, shuffle_seed, batch_size, cycles):
    """Batches arriving after GC cycles must reload spilled state exactly
    like the per-op path: later batches contain transactions whose
    snapshots lie below the collected boundary."""
    gc_every = batch_size * cycles
    history = small_history(seed)
    arrival = session_respecting_shuffle(history, Random(shuffle_seed))
    expected = per_op_verdicts(kind, arrival, gc_every=gc_every)
    got = kernel_verdicts(kind, arrival, batch_size=batch_size, gc_every=gc_every)
    assert got == expected


@pytest.mark.parametrize("kind", KINDS)
def test_kernel_counters_deterministic(kind):
    """Counters advance with the routed work — exact values derivable
    from the history alone, independent of wall-clock."""
    history = small_history(7, n=60)
    arrival = session_respecting_shuffle(history, Random(7))
    checker = make_checker(kind)
    try:
        for offset in range(0, len(arrival), 25):
            checker.receive_many(arrival[offset : offset + 25])
        stats = checker.kernel_stats
        n = len(arrival)  # the workload's txns plus the init transaction
        assert stats.batches == -(-n // 25)
        assert stats.txns == n
        assert stats.max_batch == 25
        assert stats.route_ops == sum(len(t.ops) for t in arrival)
        n_ext_reads = sum(len(t.external_reads) for t in arrival)
        assert stats.probe_reads == n_ext_reads
        assert stats.verdict_tracks == n_ext_reads
        n_writes = sum(
            len({op.key for op in t.ops if op.kind.name == "WRITE"}) for t in arrival
        )
        assert stats.probe_writes == n_writes
        as_dict = stats.as_dict()
        assert as_dict["batches"] == stats.batches
        assert set(as_dict) == {
            "batches",
            "txns",
            "max_batch",
            "route_ops",
            "probe_reads",
            "probe_writes",
            "verdict_tracks",
            "verdict_reevals",
            "verdict_conflicts",
            "timed_batches",
            "route_seconds",
            "probe_seconds",
            "verdict_seconds",
            "batch_seconds",
            "slow_batches",
        }
        # Timing is off by default: no sampled batches, no wall time.
        assert stats.sample_every == 0
        assert stats.timed_batches == 0
        assert stats.batch_seconds == 0.0
    finally:
        checker.close()


def test_per_op_path_leaves_counters_untouched():
    """The reference path must NOT advance kernel counters — the smoke
    gate relies on counters proving batches actually took the kernel."""
    history = small_history(11, n=30)
    arrival = session_respecting_shuffle(history, Random(11))
    checker = Aion(INF, clock=lambda: 0.0)
    try:
        for txn in arrival:
            checker.receive(txn)
        assert checker.kernel_stats.batches == 0
        assert checker.kernel_stats.txns == 0
        assert checker.kernel_stats.probe_reads == 0
    finally:
        checker.close()


def test_empty_and_singleton_batches():
    """Degenerate partitions: empty batches are no-ops, and a stream of
    singleton batches equals one whole-stream batch."""
    history = small_history(3, n=40)
    arrival = session_respecting_shuffle(history, Random(3))
    whole = kernel_verdicts("aion", arrival, batch_size=len(arrival))
    singles = kernel_verdicts("aion", arrival, batch_size=1)
    assert singles == whole

    checker = Aion(INF, clock=lambda: 0.0)
    try:
        checker.receive_many([])
        assert checker.processed == 0
        assert checker.kernel_stats.batches == 0
    finally:
        checker.close()


@pytest.mark.parametrize(
    "n_shards, executor", [(1, "serial"), (2, "serial"), (4, "serial"), (2, "process")]
)
def test_sharded_columnar_batches_equal_object_batches(n_shards, executor):
    """The same arrivals as lists and as decoded wire columns: equal
    *ordered* verdicts, ``processed`` and kernel counters.  ShardedAion
    routes a ``ColumnarBatch`` straight off its flat arrays (the route
    pass it inherits from Aion), so only columns — never Transaction
    objects — reach a worker process."""
    history = small_history(29, n=150, faults=6)
    arrival = session_respecting_shuffle(history, Random(29))
    counters = (
        "batches", "txns", "max_batch", "route_ops", "probe_reads", "probe_writes",
        "verdict_tracks", "verdict_reevals", "verdict_conflicts",
    )

    def run(columnar):
        checker = ShardedAion(INF, n_shards=n_shards, clock=lambda: 0.0, executor=executor)
        try:
            polls = []
            for offset in range(0, len(arrival), 32):
                batch = arrival[offset : offset + 32]
                if columnar:
                    batch, _ = unpack_columnar(pack_columnar(batch))
                checker.receive_many(batch)
                polls.append(checker.poll())
            stats = checker.kernel_stats.as_dict()
            return (
                polls,
                list(checker.finalize().violations),
                checker.processed,
                {name: stats[name] for name in counters},
                [row["last_batch_commands"] for row in checker.shard_stats()],
            )
        finally:
            checker.close()

    objects = run(columnar=False)
    assert objects[1], "the faulted stream must produce verdicts to compare"
    assert run(columnar=True) == objects
    reference = Aion(INF, clock=lambda: 0.0)
    for offset in range(0, len(arrival), 32):
        reference.receive_many(arrival[offset : offset + 32])
    assert list(reference.finalize().violations) == objects[1]
    reference.close()
