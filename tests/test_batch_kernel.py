"""Differential tests: the staged batch kernel under every batch split.

``receive_many`` is the one implementation of Algorithm 3 — route the
batch into flat op arrays, probe the versioned structures, apply the
verdicts in arrival order — and ``receive(txn)`` is
``receive_many([txn])`` on every checker.  These tests pin batch-split
invariance: for any history (clean, fault-injected, or a textbook
anomaly), any session-respecting arrival order, and any partition of
that order into batches — a batch per arrival, batches straddling GC
cycles, the whole stream at once — the checker yields the identical
violation multiset, and that multiset is the offline oracle's
(``ReferenceOnlineChecker``: Chronos / Chronos-SER replaying what was
received, which shares no structure with the kernel).  Ordered reports
and the flip-flop counters are pinned the same way, and so are the
kernel's per-stage counters: they advance deterministically with the
routed work, one batch per call, which is what lets the smoke-stream
tests at the end catch a kernel that stopped doing the work it reports.
"""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aion import Aion, AionConfig
from repro.core.aion_ser import AionSer
from repro.core.colpack import pack_columnar, unpack_columnar
from repro.core.reference import ReferenceOnlineChecker, normalize_violations
from repro.core.sharded import ShardedAion
from repro.histories.anomalies import ANOMALY_CATALOG

from test_differential import (
    session_respecting_shuffle,
    small_history,
    split_session_verdicts,
)
from test_ext_status import collect_flipped_tids

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
    """One transaction at a time through ``receive`` — a batch per
    arrival.  ShardedAion is held to single-shard Aion."""
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


def oracle_verdicts(kind, txns):
    """The offline checker over exactly the transactions received."""
    oracle = ReferenceOnlineChecker("ser" if kind == "ser" else "si")
    oracle.receive_many(txns)
    return normalize_violations(oracle.result())


KINDS = ["aion", "aion-ablation", "ser", "sharded"]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", sorted(ANOMALY_CATALOG))
def test_kernel_matches_per_op_on_anomaly_catalog(kind, name):
    """Every textbook anomaly, every arrival order of its tiny history,
    every batch split: kernel ≡ per-op ≡ the offline oracle."""
    history = ANOMALY_CATALOG[name].build()
    for shuffle_seed in range(4):
        arrival = session_respecting_shuffle(history, Random(shuffle_seed))
        expected = per_op_verdicts(kind, arrival)
        assert expected[0] == oracle_verdicts(kind, arrival), (name, shuffle_seed)
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
    # Timestamp faults may move a SESSION report to another member of the
    # same broken session (arrival order vs start-timestamp order).
    assert split_session_verdicts(got[0], history) == split_session_verdicts(
        oracle_verdicts(kind, arrival), history
    )


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
    assert got[0] == oracle_verdicts(kind, arrival)


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
        n_ext_reads = sum(len(t.external_read_positions) for t in arrival)
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


COUNTERS = (
    "batches", "txns", "max_batch", "route_ops", "probe_reads", "probe_writes",
    "verdict_tracks", "verdict_reevals", "verdict_conflicts",
)


def test_receive_is_a_batch_of_one():
    """``receive(txn)`` is ``receive_many([txn])``: after every arrival the
    two leave equal kernel counters (one batch per call), ``processed``,
    ordered ``result.violations`` and ``poll()`` output."""
    history = small_history(11, n=60, faults=4)
    arrival = session_respecting_shuffle(history, Random(11))
    for kind in KINDS:
        single, batched = make_checker(kind), make_checker(kind)
        try:
            for count, txn in enumerate(arrival, 1):
                single.receive(txn)
                batched.receive_many([txn])
                stats = single.kernel_stats.as_dict()
                assert stats["batches"] == stats["txns"] == count
                assert stats["max_batch"] == 1
                other = batched.kernel_stats.as_dict()
                assert [stats[name] for name in COUNTERS] == [other[name] for name in COUNTERS]
                assert single.processed == batched.processed
                assert single.poll() == batched.poll()
                assert single.result.violations == batched.result.violations
            assert single.finalize().violations == batched.finalize().violations
            assert single.result.violations, kind
        finally:
            single.close()
            batched.close()


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


@pytest.mark.parametrize("n_shards", [1, 2, 4])
def test_sharded_columnar_batches_equal_object_batches(n_shards):
    """The same arrivals as lists and as decoded wire columns: equal
    *ordered* verdicts, ``processed`` and kernel counters.  ShardedAion
    routes a ``ColumnarBatch`` straight off its flat arrays (the route
    pass it inherits from Aion)."""
    history = small_history(29, n=150, faults=6)
    arrival = session_respecting_shuffle(history, Random(29))
    def run(columnar):
        checker = ShardedAion(INF, n_shards=n_shards, clock=lambda: 0.0)
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
                {name: stats[name] for name in COUNTERS},
                checker.shard_stats(),
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


def ordered_run(kind, arrival, batch_size, *, columnar=False):
    """Final *ordered* report list, ``processed`` and the flip-flop
    counters of one checker fed ``arrival`` in ``batch_size`` batches
    (``receive`` per arrival at batch size 1)."""
    checker = make_checker(kind)
    flipped = collect_flipped_tids(checker)
    try:
        for offset in range(0, len(arrival), batch_size):
            batch = arrival[offset : offset + batch_size]
            if columnar:
                checker.receive_many(unpack_columnar(pack_columnar(batch))[0])
            elif batch_size == 1:
                checker.receive(batch[0])
            else:
                checker.receive_many(batch)
        reports = list(checker.finalize().violations)
        flips = checker.flipflop_stats
        return (
            reports,
            checker.processed,
            flips.flip_histogram(),
            (flips.n_flipped_txns, sorted(flipped)),
            (flips.n_rectified, flips.rectify_seconds),
        )
    finally:
        checker.close()


@pytest.mark.parametrize("name", sorted(ANOMALY_CATALOG))
def test_ser_report_order_is_batch_split_invariant(name):
    """Not the same multiset — the same *list*, for AionSer on the kernel
    it now shares with Aion: every batch size, as objects and as decoded
    wire columns."""
    history = ANOMALY_CATALOG[name].build()
    for shuffle_seed in range(4):
        arrival = session_respecting_shuffle(history, Random(shuffle_seed))
        expected = ordered_run("ser", arrival, 1)
        for batch_size in (1, 2, 7, len(arrival)):
            for columnar in (False, True):
                got = ordered_run("ser", arrival, batch_size, columnar=columnar)
                assert got == expected, (name, shuffle_seed, batch_size, columnar)


@pytest.mark.parametrize("kind", ["aion", "ser"])
@pytest.mark.parametrize("seed", range(6))
def test_flipflops_are_batch_split_invariant(kind, seed):
    """Figs 13–14 are drawn from ``flipflop_stats`` through
    ``online/runner.py``, which calls ``receive``: the flip histogram and
    the flipped transactions must not depend on how arrivals are batched."""
    history = small_history(seed, n=200, faults=4)
    arrival = session_respecting_shuffle(history, Random(seed))
    expected = ordered_run(kind, arrival, 1)
    assert sum(expected[2].values()) > 0, "the shuffled stream must flip verdicts"
    for batch_size in (2, 7, 50, len(arrival)):
        assert ordered_run(kind, arrival, batch_size) == expected, batch_size


# The hot-path smoke stream: a seeded near-commit-order arrival of a clean
# history, in batches of 50.  What the kernel counts on it is exact, so
# the counters below are derived from the ``Transaction`` views, and the
# re-check counts and flip-flops are the values the kernel gave before
# its passes were fused (a kernel that drops or duplicates work, or
# splits a batch differently from what it was handed, changes them).
SMOKE_BATCH = 50
SMOKE_PINS = {
    # kind: (verdict_reevals, verdict_conflicts, flips_per_pair,
    #        flipped transactions, rectifications, final EXT violations)
    "aion": (771, 0, {1: 453}, 217, 453, 0),
    "ser": (819, 0, {1: 408, 2: 48}, 224, 418, 214),
    "sharded": (771, 0, {1: 453}, 217, 453, 0),
}


@pytest.fixture(scope="module")
def smoke_stream():
    from repro.bench import cached_history
    from repro.online.collector import HistoryCollector
    from repro.online.delays import NormalDelay
    from repro.workloads import WorkloadSpec, generate_default_history

    history = cached_history(generate_default_history, WorkloadSpec(
        n_sessions=6, n_transactions=400, ops_per_txn=8, n_keys=120, seed=77
    ))
    collector = HistoryCollector(
        batch_size=SMOKE_BATCH, arrival_tps=10_000, delay_model=NormalDelay(100, 10), seed=5
    )
    return [txn for _, txn in collector.schedule(history)]


def smoke_run(kind, txns, *, instrumented=False):
    """Counters, ordered reports, flip-flops and slow-batch traces of
    one checker over the smoke stream; ``instrumented`` samples stage
    timings on every batch and traces every batch as slow."""
    checker = (
        ShardedAion(INF, n_shards=2, clock=lambda: 0.0) if kind == "sharded" else make_checker(kind)
    )
    stats = checker.kernel_stats
    traces = []
    if instrumented:
        stats.sample_every = 1
        stats.slow_threshold = 1e-9
        stats.on_slow_batch = traces.append
    try:
        for offset in range(0, len(txns), SMOKE_BATCH):
            checker.receive_many(txns[offset : offset + SMOKE_BATCH])
        reports = list(checker.finalize().violations)
        return stats.as_dict(), reports, checker.flipflop_stats, traces
    finally:
        checker.close()


@pytest.mark.parametrize("kind", ["aion", "ser", "sharded"])
def test_smoke_stream_counters_match_the_transaction_views(kind, smoke_stream):
    """The staged kernel does the work it reports: one batch per call,
    every op routed, one probe per external read and per written key,
    every external read tracked."""
    txns = smoke_stream
    got, reports, flips, _ = smoke_run(kind, txns)
    n_ext_reads = sum(len(t.external_read_positions) for t in txns)
    assert {name: got[name] for name in COUNTERS[:7]} == {
        "batches": -(-len(txns) // SMOKE_BATCH),
        "txns": len(txns),
        "max_batch": SMOKE_BATCH,
        "route_ops": sum(len(t.ops) for t in txns),
        "probe_reads": n_ext_reads,
        "probe_writes": sum(len(t.last_writes) for t in txns),
        "verdict_tracks": n_ext_reads,
    }
    assert got["probe_reads"] and got["probe_writes"]
    reevals, conflicts, flips_per_pair, n_flipped, n_rectified, n_violations = SMOKE_PINS[kind]
    assert (got["verdict_reevals"], got["verdict_conflicts"]) == (reevals, conflicts)
    assert flips.flips_per_pair == flips_per_pair
    # The clock stands at 0: every rectify time is 0.0, in the first bucket.
    assert (flips.n_flipped_txns, flips.n_rectified, flips.rectify_seconds) == (
        n_flipped, n_rectified, 0.0,
    )
    assert flips.rectify_histogram()["0-1ms"] == n_rectified
    assert (flips.n_pairs, flips.n_finalized) == (n_ext_reads, n_ext_reads)
    assert flips.n_final_violations == n_violations == len(reports)


@pytest.mark.parametrize("kind", ["aion", "ser", "sharded"])
def test_smoke_stream_instrumentation_changes_nothing(kind, smoke_stream):
    """Stage timing on every batch and a slow-batch trace of every batch
    leave the op counters, the ordered reports and the flip-flops as
    they are — and every batch is timed and traced."""
    plain, plain_reports, plain_flips, _ = smoke_run(kind, smoke_stream)
    got, reports, flips, traces = smoke_run(kind, smoke_stream, instrumented=True)
    assert [got[name] for name in COUNTERS] == [plain[name] for name in COUNTERS]
    assert reports == plain_reports
    assert flips == plain_flips
    assert got["timed_batches"] == got["slow_batches"] == len(traces) == got["batches"]
