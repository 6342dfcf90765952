"""Differential tests: ShardedAion ≡ Aion, across shard counts and batch sizes.

The sharded frontend's whole claim is verdict equivalence (see the
module docstring of :mod:`repro.core.sharded`): for any arrival order,
any shard count, per-transaction or batched ingestion, with or without
GC — the violation multiset equals single-shard Aion's, which in turn
equals Chronos's.  Since the sharded frontend inherits Aion's verdict
pass, the *order* of reports is equal too, and so, at every call
boundary, are the per-key structure sizes summed over shards.
"""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aion import Aion, AionConfig
from repro.core.chronos import Chronos
from repro.core.reference import normalize_violations
from repro.core.sharded import ShardedAion, shard_of
from repro.histories.anomalies import ANOMALY_CATALOG
from repro.online.clock import SimClock
from repro.online.collector import HistoryCollector
from repro.online.delays import NormalDelay
from repro.online.runner import OnlineRunner
from repro.workloads.generator import generate_default_history
from repro.workloads.spec import WorkloadSpec

from test_differential import (
    session_respecting_shuffle,
    small_history,
    split_session_verdicts,
)


def aion_baseline(txns):
    checker = Aion(AionConfig(timeout=float("inf")), clock=lambda: 0.0)
    for txn in txns:
        checker.receive(txn)
    result = normalize_violations(checker.finalize())
    checker.close()
    return result


def sharded_verdicts(txns, *, n_shards, batch_size=1, gc_every=None):
    checker = ShardedAion(
        AionConfig(timeout=float("inf")),
        n_shards=n_shards,
        clock=lambda: 0.0,
    )
    try:
        for offset in range(0, len(txns), batch_size):
            checker.receive_many(txns[offset : offset + batch_size])
            if gc_every is not None and (offset // batch_size) % gc_every == gc_every - 1:
                checker.collect_below(None)
        return normalize_violations(checker.finalize())
    finally:
        checker.close()


class TestShardRouting:
    def test_stable_and_in_range(self):
        for n in (1, 2, 4, 7):
            for key in ("x", "key-123", "warehouse:4:stock:9"):
                shard = shard_of(key, n)
                assert 0 <= shard < n
                assert shard == shard_of(key, n)

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            ShardedAion(n_shards=0)
        for executor in ("threads", "process", "shm-process"):
            with pytest.raises(ValueError, match="only 'serial' remains"):
                ShardedAion(executor=executor)
        ShardedAion(executor="serial").close()


@pytest.mark.parametrize("n_shards", [1, 2, 4])
@pytest.mark.parametrize("name", sorted(ANOMALY_CATALOG))
def test_anomaly_catalog_matches_aion(name, n_shards):
    """Identical violation multiset on every canonical anomaly history."""
    history = ANOMALY_CATALOG[name].build()
    txns = list(history.transactions)
    assert sharded_verdicts(txns, n_shards=n_shards) == aion_baseline(txns)


@pytest.mark.parametrize("name", sorted(ANOMALY_CATALOG))
def test_anomaly_catalog_matches_chronos_oracle(name):
    """The ordered-index engine must reproduce the offline Chronos
    verdicts on every anomaly fixture, under several session-respecting
    arrival orders and batch sizes.

    Chronos shares none of the ordered-index code (SortedMap /
    IntervalIndex / VersionedFrontier), so this is a true cross-engine
    differential: a container regression cannot cancel out.
    """
    history = ANOMALY_CATALOG[name].build()
    offline = split_session_verdicts(
        normalize_violations(Chronos().check(history)), history
    )
    for shuffle_seed, batch_size in ((0, 1), (7, 4), (13, 64)):
        arrival = session_respecting_shuffle(history, Random(shuffle_seed))
        checker = Aion(AionConfig(timeout=float("inf")), clock=lambda: 0.0)
        for offset in range(0, len(arrival), batch_size):
            checker.receive_many(arrival[offset : offset + batch_size])
        got = split_session_verdicts(
            normalize_violations(checker.finalize()), history
        )
        checker.close()
        assert got == offline, (name, shuffle_seed, batch_size)


@pytest.mark.parametrize("n_shards", [1, 2, 4])
def test_paper_fig2_matches_aion(paper_fig2_history, n_shards):
    txns = list(paper_fig2_history.transactions)
    assert sharded_verdicts(txns, n_shards=n_shards) == aion_baseline(txns)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    shuffle_seed=st.integers(0, 10_000),
    n_shards=st.sampled_from([1, 2, 4]),
)
def test_randomized_workload_matches_aion(seed, shuffle_seed, n_shards):
    """Clean generator histories under arbitrary session-respecting orders."""
    history = small_history(seed)
    arrival = session_respecting_shuffle(history, Random(shuffle_seed))
    assert sharded_verdicts(arrival, n_shards=n_shards) == aion_baseline(arrival)


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    faults=st.integers(1, 8),
    n_shards=st.sampled_from([2, 4]),
    batch_size=st.sampled_from([1, 7, 64]),
)
def test_faulted_batched_matches_aion(seed, faults, n_shards, batch_size):
    """Fault-injected histories, ingested in batches of several sizes."""
    history = small_history(seed, faults=faults)
    arrival = session_respecting_shuffle(history, Random(seed))
    got = sharded_verdicts(arrival, n_shards=n_shards, batch_size=batch_size)
    assert got == aion_baseline(arrival)


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_shards=st.sampled_from([2, 4]),
    gc_every=st.sampled_from([5, 20]),
)
def test_gc_matches_aion(seed, n_shards, gc_every):
    """Per-shard eviction + reload-on-demand preserves verdicts."""
    history = small_history(seed)
    arrival = session_respecting_shuffle(history, Random(seed))
    got = sharded_verdicts(
        arrival, n_shards=n_shards, batch_size=8, gc_every=gc_every
    )
    assert got == aion_baseline(arrival)


def _ablation_baseline(arrival):
    aion = Aion(AionConfig(timeout=float("inf"), optimized_recheck=False), clock=lambda: 0.0)
    for txn in arrival:
        aion.receive(txn)
    base = normalize_violations(aion.finalize())
    aion.close()
    return base


def test_unoptimized_recheck_matches_aion():
    """The ablation path (full re-evaluation per write) stays equivalent."""
    history = small_history(321, faults=4)
    arrival = session_respecting_shuffle(history, Random(321))
    sharded = ShardedAion(
        AionConfig(timeout=float("inf"), optimized_recheck=False),
        n_shards=3,
        clock=lambda: 0.0,
    )
    for txn in arrival:
        sharded.receive(txn)
    got = normalize_violations(sharded.finalize())
    sharded.close()
    assert got == _ablation_baseline(arrival)


def test_unoptimized_recheck_batched_matches_aion():
    """Batched ablation: expected values are resolved at the write's
    point in its key's stream, in whichever shard owns that stream, and
    come back like any other re-evaluation row."""
    history = small_history(321, faults=4)
    arrival = session_respecting_shuffle(history, Random(321))
    sharded = ShardedAion(
        AionConfig(timeout=float("inf"), optimized_recheck=False),
        n_shards=3,
        clock=lambda: 0.0,
    )
    try:
        for offset in range(0, len(arrival), 16):
            sharded.receive_many(arrival[offset : offset + 16])
        got = normalize_violations(sharded.finalize())
        assert sharded.kernel_stats.verdict_reevals > 0
    finally:
        sharded.close()
    assert got == _ablation_baseline(arrival)


def ordered_reports(checker, arrival, batch_size, clock=None):
    """Everything a consumer observes, in order: ``poll()`` after every
    batch, then ``finalize()``'s full list and the closing ``poll()``."""
    polls = []
    try:
        for offset in range(0, len(arrival), batch_size):
            if clock is not None:
                clock.advance(1.0)
            checker.receive_many(arrival[offset : offset + batch_size])
            polls.append(checker.poll())
        final = list(checker.finalize().violations)
        polls.append(checker.poll())
        return polls, final, checker.processed
    finally:
        checker.close()


def _inf():
    return AionConfig(timeout=float("inf"))


@pytest.mark.parametrize("n_shards", [1, 2, 4])
@pytest.mark.parametrize("name", sorted(ANOMALY_CATALOG))
def test_report_order_equals_aion_on_anomaly_catalog(name, n_shards):
    """Not the same multiset — the same *list*: SESSION / INT / TS_ORDER
    / NOCONFLICT / EXT reports interleave exactly as Aion.receive_many
    emits them, per poll and in the final result."""
    history = ANOMALY_CATALOG[name].build()
    for shuffle_seed, batch_size in ((0, 1), (7, 4), (13, 64)):
        arrival = session_respecting_shuffle(history, Random(shuffle_seed))
        expected = ordered_reports(Aion(_inf(), clock=lambda: 0.0), arrival, batch_size)
        got = ordered_reports(
            ShardedAion(_inf(), n_shards=n_shards, clock=lambda: 0.0), arrival, batch_size
        )
        assert got == expected, (name, shuffle_seed, batch_size)


@pytest.mark.parametrize("n_shards", [1, 2, 4])
@pytest.mark.parametrize("seed, batch_size", [(401, 16), (406, 64)])
def test_report_order_equals_aion_on_faulted_stream(seed, batch_size, n_shards):
    """Batches that mix NOCONFLICT with SESSION / INT / TS_ORDER reports
    — where a router that reports some axioms while routing and others
    while merging yields a permutation of Aion's list, not the list."""
    history = small_history(seed, n=200, faults=16)
    arrival = session_respecting_shuffle(history, Random(seed))
    expected = ordered_reports(Aion(_inf(), clock=lambda: 0.0), arrival, batch_size)
    assert len({v.axiom for v in expected[1]}) >= 3
    got = ordered_reports(
        ShardedAion(_inf(), n_shards=n_shards, clock=lambda: 0.0), arrival, batch_size
    )
    assert got == expected


def test_report_order_equals_aion_with_timers_firing():
    """The same kind of stream under a finite timeout: EXT verdicts
    finalize *between* batches (so read removals reach the shards), and
    every poll still drains the same list."""
    history = small_history(404, n=200, faults=16)
    arrival = session_respecting_shuffle(history, Random(404))
    clock = SimClock()
    expected = ordered_reports(
        Aion(AionConfig(timeout=2.5), clock=clock), arrival, 16, clock
    )
    assert any(v.axiom.name != "EXT" for v in expected[1])
    assert any(v.axiom.name == "EXT" for poll in expected[0][:-1] for v in poll)
    clock = SimClock()
    got = ordered_reports(
        ShardedAion(AionConfig(timeout=2.5), n_shards=2, clock=clock), arrival, 16, clock,
    )
    assert got == expected


def test_end_of_stream_flush_clears_the_shard_read_indexes():
    """Timers that expire mid-stream remove their reads from the owning
    shards read by read; the end-of-stream flush leaves nothing pending,
    so it clears every shard's read index at once."""
    history = small_history(505, n=200, faults=16)
    arrival = session_respecting_shuffle(history, Random(505))

    def run(checker, clock, rows=None):
        observed = []
        try:
            for offset in range(0, len(arrival), 16):
                checker.receive_many(arrival[offset : offset + 16])
                clock.advance(1.0)
                observed.append(checker.poll())  # the poll itself fires the due timers
                if rows is not None:
                    rows.append(checker.shard_stats())
            observed.append(list(checker.finalize().violations))
            if rows is not None:
                rows.append(checker.shard_stats())
            return observed
        finally:
            checker.close()

    clock = SimClock()
    expected = run(Aion(AionConfig(timeout=2.5), clock=clock), clock)
    assert any(v.axiom.name == "EXT" for poll in expected[:-1] for v in poll)
    clock = SimClock()
    rows = []
    sharded = ShardedAion(AionConfig(timeout=2.5), n_shards=2, clock=clock)
    assert run(sharded, clock, rows) == expected
    *mid_stream, final = rows
    assert all(row["ext_reads"] > 0 for row in mid_stream[-1])
    assert [row["ext_reads"] for row in final] == [0, 0]


def test_matches_chronos_end_to_end(si_history):
    """On a clean engine history the sharded checker agrees with Chronos."""
    txns = si_history.by_commit_ts()
    offline = normalize_violations(Chronos().check(si_history))
    assert sharded_verdicts(list(txns), n_shards=4, batch_size=100) == offline


def test_receive_many_equals_receive_loop_on_aion():
    """Aion's own batched entry point matches its per-transaction loop."""
    history = small_history(55, faults=3)
    arrival = session_respecting_shuffle(history, Random(55))
    base = aion_baseline(arrival)
    batched = Aion(AionConfig(timeout=float("inf")), clock=lambda: 0.0)
    for offset in range(0, len(arrival), 32):
        batched.receive_many(arrival[offset : offset + 32])
    got = normalize_violations(batched.finalize())
    batched.close()
    assert got == base


class TestBatchedRunner:
    def _schedule(self, history):
        collector = HistoryCollector(
            batch_size=100, arrival_tps=50_000, delay_model=NormalDelay(20, 5), seed=9
        )
        return collector.schedule(history)

    def test_run_batched_matches_per_txn(self, si_history):
        schedule = self._schedule(si_history)

        clock = SimClock()
        per_txn = Aion(AionConfig(timeout=float("inf")), clock=clock)
        base_report = OnlineRunner(per_txn, clock).run(schedule)
        base = normalize_violations(base_report.result)
        per_txn.close()

        clock = SimClock()
        sharded = ShardedAion(AionConfig(timeout=float("inf")), n_shards=4, clock=clock)
        report = OnlineRunner(sharded, clock).run(schedule, batch_size=250)
        got = normalize_violations(report.result)
        sharded.close()

        assert got == base
        assert report.n_processed == len(schedule)
        assert report.throughput.total == len(schedule)

    def test_batched_runner_with_gc(self, si_history):
        from repro.online.runner import GcPolicy

        schedule = self._schedule(si_history)
        clock = SimClock()
        sharded = ShardedAion(AionConfig(timeout=float("inf")), n_shards=2, clock=clock)
        report = OnlineRunner(
            sharded, clock, gc_policy=GcPolicy.CHECKING_GC, gc_threshold=400
        ).run(schedule, batch_size=100)
        assert report.n_gc_cycles >= 1
        assert report.result.is_valid
        sharded.close()

    def test_rejects_bad_batch_size(self, si_history):
        clock = SimClock()
        sharded = ShardedAion(clock=clock, n_shards=2)
        with pytest.raises(ValueError):
            OnlineRunner(sharded, clock).run(self._schedule(si_history), batch_size=0)
        sharded.close()


class TestCoordinatorSurface:
    def test_estimated_bytes_grows(self):
        history = small_history(11)
        sharded = ShardedAion(AionConfig(timeout=float("inf")), n_shards=2, clock=lambda: 0.0)
        empty = sharded.estimated_bytes()
        sharded.receive_many(list(history.by_commit_ts()))
        assert sharded.estimated_bytes() > empty
        assert sharded.resident_txn_count == len(history)
        sharded.close()

    def test_shard_structure_counts_sum_to_aions(self):
        """Shards share one batch's columns; each shard's size counters
        advance by the ops *it* walked, so they sum to single-shard
        Aion's."""
        history = small_history(17, faults=3)
        arrival = session_respecting_shuffle(history, Random(17))
        aion = Aion(_inf(), clock=lambda: 0.0)
        sharded = ShardedAion(_inf(), n_shards=3, clock=lambda: 0.0)
        try:
            for offset in range(0, len(arrival), 16):
                aion.receive_many(arrival[offset : offset + 16])
                sharded.receive_many(arrival[offset : offset + 16])
            rows = sharded.shard_stats()
            assert sum(row["versions"] for row in rows) == len(aion._frontier)
            assert sum(row["intervals"] for row in rows) == len(aion._frontier)
            assert sum(row["ext_reads"] for row in rows) == len(aion._ext_reads) > 0
            assert sharded.pending_ext_reads == aion.pending_ext_reads == len(aion._ext_reads)
            assert sharded.pending_ext_txns == aion.pending_ext_txns > 0
        finally:
            aion.close()
            sharded.close()

    def test_gc_report_counts(self):
        history = small_history(13)
        sharded = ShardedAion(AionConfig(timeout=float("inf")), n_shards=4, clock=lambda: 0.0)
        sharded.receive_many(list(history.by_commit_ts()))
        report = sharded.collect_below(None)
        assert report.evicted_txns == len(history)
        assert sharded.resident_txn_count == 0
        assert sharded.spill_store is not None
        sharded.close()

    def test_empty_gc_echoes_requested_ts(self):
        sharded = ShardedAion(n_shards=2, clock=lambda: 0.0)
        report = sharded.collect_below(123)
        assert report.requested_ts == 123
        assert report.effective_ts == 123
        assert report.evicted_txns == 0
        report = sharded.collect_below(None)
        assert report.effective_ts == -1
        sharded.close()

    def test_append_rejected(self):
        from repro.histories.builder import HistoryBuilder
        from repro.histories.ops import append

        b = HistoryBuilder(with_init=False)
        txn = b.txn(sid=1, ops=[append("l", 1)])
        sharded = ShardedAion(n_shards=2, clock=lambda: 0.0)
        with pytest.raises(ValueError, match="offline"):
            sharded.receive(txn)
        sharded.close()


def test_receive_many_rejects_appends_before_any_state_change():
    """A rejected append mid-batch must not leave earlier batch members
    tracked but timer-less: the whole batch is validated up front."""
    from repro.histories.builder import HistoryBuilder
    from repro.histories.ops import append, read, write

    b = HistoryBuilder(keys=["x", "l"])
    good = b.txn(sid=1, ops=[write("x", 1)])
    bad = b.txn(sid=2, ops=[append("l", 1)])
    b.build()
    for checker in (
        Aion(AionConfig(timeout=float("inf")), clock=lambda: 0.0),
        ShardedAion(AionConfig(timeout=float("inf")), n_shards=2, clock=lambda: 0.0),
    ):
        with pytest.raises(ValueError, match="offline"):
            checker.receive_many([good, bad])
        assert checker.processed == 0
        assert checker.resident_txn_count == 0
        checker.close()


# ----------------------------------------------------------------------
# State equality: the shards hold exactly Aion's structures, split by key
# ----------------------------------------------------------------------

#: The catalog, plus one faulted stream whose reads finalize a few at a
#: time while later ones are still pending.
STATE_STREAMS = [*sorted(ANOMALY_CATALOG), "faulted-404"]


def _state_stream(name):
    if name == "faulted-404":
        history = small_history(404, n=200, faults=16)
        return session_respecting_shuffle(history, Random(404))
    return session_respecting_shuffle(ANOMALY_CATALOG[name].build(), Random(7))


@pytest.mark.parametrize("batch_size", [1, 25, None], ids=["1", "25", "whole"])
@pytest.mark.parametrize("n_shards", [1, 2, 4, 8])
@pytest.mark.parametrize("name", STATE_STREAMS)
def test_shard_structures_equal_aions_after_every_call(name, n_shards, batch_size):
    """After every ``receive_many`` and every ``poll`` (the call that
    fires due timers), the shards' versions, intervals and indexed reads
    sum to a lock-step Aion's, and ``pending_ext_reads`` agrees: a
    finalized read leaves its shard's index in the call that finalized
    it, as it leaves Aion's."""
    arrival = _state_stream(name)
    batch_size = batch_size or len(arrival)
    config = AionConfig(timeout=1.5)
    aion_clock, sharded_clock = SimClock(), SimClock()
    aion = Aion(config, clock=aion_clock)
    sharded = ShardedAion(config, n_shards=n_shards, clock=sharded_clock)

    def assert_equal_state(where):
        rows = sharded.shard_stats()
        expected = [len(aion._frontier), len(aion._frontier), len(aion._ext_reads)]
        got = [sum(row[column] for row in rows) for column in ("versions", "intervals", "ext_reads")]
        assert got == expected, where
        assert sharded.pending_ext_reads == aion.pending_ext_reads == len(aion._ext_reads), where

    def step(where, call):
        assert call(sharded) == call(aion), where
        assert_equal_state(where)

    try:
        for offset in range(0, len(arrival), batch_size):
            batch = arrival[offset : offset + batch_size]
            step(("receive_many", offset), lambda checker: checker.receive_many(batch))
            # A poll one second on fires the previous batch's timers
            # while this batch's are still pending.
            aion_clock.advance(1.0)
            sharded_clock.advance(1.0)
            step(("poll", offset), lambda checker: checker.poll())
        aion_clock.advance(1.0)
        sharded_clock.advance(1.0)
        step("poll after the last batch", lambda checker: checker.poll())
        step("finalize", lambda checker: list(checker.finalize().violations))
        assert sharded.pending_ext_reads == 0
    finally:
        aion.close()
        sharded.close()
