"""Tests for Aion's garbage collection, spilling and reload-on-demand."""

from random import Random

import pytest

from repro.core.aion import Aion, AionConfig
from repro.core.aion_ser import AionSer
from repro.core.chronos import Chronos
from repro.core.chronos_ser import ChronosSer
from repro.core.reference import normalize_violations
from repro.core.sharded import ShardedAion
from repro.db.faults import HistoryFaultInjector
from repro.histories.anomalies import ANOMALY_CATALOG
from repro.histories.builder import HistoryBuilder
from repro.histories.ops import read, write
from repro.workloads.generator import generate_default_history
from repro.workloads.spec import WorkloadSpec

from test_differential import session_respecting_shuffle, split_session_verdicts


def make_aion():
    return Aion(AionConfig(timeout=float("inf")), clock=lambda: 0.0)


class TestCollectBelow:
    def test_gc_empties_resident_set(self, si_history):
        aion = make_aion()
        for txn in si_history.by_commit_ts():
            aion.receive(txn)
        before = aion.resident_txn_count
        report = aion.collect_below(None)
        assert before == len(si_history)
        assert report.evicted_txns == before
        assert aion.resident_txn_count == 0
        assert aion.spill_store is not None
        assert aion.spill_store.spill_count == 1
        aion.close()

    def test_gc_noop_when_empty(self):
        aion = make_aion()
        report = aion.collect_below(None)
        assert report.effective_ts == -1
        assert report.evicted_txns == 0

    def test_suggest_gc_ts_keeps_margin(self, si_history):
        aion = make_aion()
        for txn in si_history.by_commit_ts():
            aion.receive(txn)
        target = aion.suggest_gc_ts(keep_recent=100)
        assert target is not None
        aion.collect_below(target)
        assert aion.resident_txn_count == 100
        assert aion.suggest_gc_ts(keep_recent=1000) is None  # margin covers all
        aion.close()

    def test_queries_after_gc_remain_exact(self):
        """Keep-newest: visibility above the watermark stays correct."""
        b = HistoryBuilder(keys=["x"])
        b.txn(sid=1, start=1, commit=2, ops=[write("x", 1)])
        b.txn(sid=2, start=3, commit=4, ops=[write("x", 2)])
        history = b.build()
        aion = make_aion()
        for txn in history.transactions:
            aion.receive(txn)
        aion.collect_below(None)
        # A reader above the boundary still sees the kept newest version.
        reader = HistoryBuilder(keys=["x"])
        reader.txn(sid=3, start=10, commit=10, ops=[read("x", 2)])
        late = reader.build().transactions[-1]
        aion.receive(late)
        assert aion.finalize().is_valid
        aion.close()

    def test_delayed_txn_triggers_reload(self):
        b = HistoryBuilder(keys=["x"])
        b.txn(sid=1, start=1, commit=2, ops=[write("x", 1)])
        b.txn(sid=2, start=10, commit=11, ops=[write("x", 2)])
        history = b.build()
        delayed_builder = HistoryBuilder(keys=["x"])
        delayed_builder.txn(sid=3, start=3, commit=3, ops=[read("x", 1)], tid=77)
        delayed = delayed_builder.build().transactions[-1]

        aion = make_aion()
        for txn in history.transactions:
            aion.receive(txn)
        aion.collect_below(None)
        assert aion.spill_store.spill_count == 1
        # The delayed reader's snapshot (ts 3) is below the GC boundary:
        # the true floor (x=1 at ts 2) was spilled and must be reloaded.
        aion.receive(delayed)
        result = aion.finalize()
        assert result.is_valid
        assert aion.spill_store.reload_count >= 1
        aion.close()

    def test_delayed_conflict_detected_after_gc(self):
        b = HistoryBuilder(keys=["x"])
        b.txn(sid=1, tid=1, start=1, commit=5, ops=[write("x", 1)])
        b.txn(sid=2, tid=2, start=10, commit=11, ops=[write("x", 2)])
        history = b.build()
        overlap_builder = HistoryBuilder(keys=["x"])
        overlap_builder.txn(sid=3, tid=88, start=2, commit=3, ops=[write("y", 9)])
        late = overlap_builder.build().transactions[-1]
        # `late` overlaps txn 1 in time but writes a different key — then
        # a second late txn overlaps on the same key.
        conflict_builder = HistoryBuilder(keys=["x"])
        conflict_builder.txn(sid=4, tid=99, start=2, commit=4, ops=[write("x", 3)])
        conflicting = conflict_builder.build().transactions[-1]

        aion = make_aion()
        for txn in history.transactions:
            aion.receive(txn)
        aion.collect_below(None)
        aion.receive(late)
        aion.receive(conflicting)
        result = aion.finalize()
        pairs = {
            frozenset({v.tid, next(iter(v.conflicting_tids))})
            for v in result.violations
            if v.axiom.value == "NOCONFLICT"
        }
        assert frozenset({1, 99}) in pairs
        aion.close()


class TestDifferentialWithGc:
    def test_aggressive_gc_preserves_verdicts(self):
        history = generate_default_history(
            WorkloadSpec(n_sessions=8, n_transactions=600, ops_per_txn=8, n_keys=120, seed=77)
        )
        offline = normalize_violations(Chronos().check(history))
        aion = make_aion()
        for index, txn in enumerate(history.by_commit_ts()):
            aion.receive(txn)
            if index % 50 == 49:
                aion.collect_below(None)
        assert normalize_violations(aion.finalize()) == offline
        aion.close()

    def test_aion_ser_gc_preserves_verdicts(self):
        history = generate_default_history(
            WorkloadSpec(n_sessions=8, n_transactions=500, ops_per_txn=8, n_keys=120, seed=78)
        )
        offline = normalize_violations(ChronosSer().check(history))
        ser = AionSer(AionConfig(timeout=float("inf")), clock=lambda: 0.0)
        for index, txn in enumerate(history.by_commit_ts()):
            ser.receive(txn)
            if index % 50 == 49:
                ser.collect_below(None)
        assert normalize_violations(ser.finalize()) == offline
        ser.close()

    def test_estimated_bytes_drops_after_gc(self, si_history):
        aion = make_aion()
        for txn in si_history.by_commit_ts():
            aion.receive(txn)
        before = aion.estimated_bytes()
        aion.collect_below(None)
        after = aion.estimated_bytes()
        assert after < before
        aion.close()


class TestEmptyGcReportContract:
    def test_requested_ts_echoed_when_empty(self):
        """An empty checker's no-op cycle echoes the requested watermark
        instead of the confusing -1 sentinel (which now only means "no
        watermark at all")."""
        aion = make_aion()
        report = aion.collect_below(500)
        assert report.requested_ts == 500
        assert report.effective_ts == 500
        assert (report.evicted_versions, report.evicted_intervals, report.evicted_txns) == (0, 0, 0)
        assert report.seconds >= 0.0

    def test_requested_ts_echoed_when_empty_ser(self):
        ser = AionSer(AionConfig(timeout=float("inf")), clock=lambda: 0.0)
        report = ser.collect_below(500)
        assert report.requested_ts == 500
        assert report.effective_ts == 500
        report = ser.collect_below(None)
        assert report.effective_ts == -1


# ----------------------------------------------------------------------
# Reload differential: stream, GC aggressively, deliver severely delayed
# transactions below the watermark
# ----------------------------------------------------------------------

INF = AionConfig(timeout=float("inf"))
ABLATION = AionConfig(timeout=float("inf"), optimized_recheck=False)

#: name -> (constructor, level, ``receive`` per arrival — a batch of one,
#: so a below-boundary arrival reloads mid-plan — instead of whole batches)
DELAYED_CHECKERS = {
    "aion": (lambda: Aion(INF, clock=lambda: 0.0), "si", False),
    "aion-per-op": (lambda: Aion(INF, clock=lambda: 0.0), "si", True),
    # The ablation re-checks arbitrarily old snapshot points: every
    # arrival that writes forces the spilled segments back.
    "aion-ablation-per-op": (lambda: Aion(ABLATION, clock=lambda: 0.0), "si", True),
    "aion-ser": (lambda: AionSer(INF, clock=lambda: 0.0), "ser", False),
    "aion-ser-per-op": (lambda: AionSer(INF, clock=lambda: 0.0), "ser", True),
    "sharded-x1": (lambda: ShardedAion(INF, n_shards=1, clock=lambda: 0.0), "si", False),
    "sharded-x2": (lambda: ShardedAion(INF, n_shards=2, clock=lambda: 0.0), "si", False),
    "sharded-x4": (lambda: ShardedAion(INF, n_shards=4, clock=lambda: 0.0), "si", False),
    "sharded-x2-ablation": (
        lambda: ShardedAion(ABLATION, n_shards=2, clock=lambda: 0.0),
        "si",
        False,
    ),
}


def delayed_plan(seed):
    """``(history, batches)``: four sessions stream on time in commit
    order, 30 a batch; the two held-back sessions deliver what is due —
    by then far below every GC watermark — after each third."""
    history = generate_default_history(
        WorkloadSpec(n_sessions=6, n_transactions=360, ops_per_txn=6, n_keys=25, seed=seed)
    )
    injector = HistoryFaultInjector(history, seed=seed)
    for _ in range(3):
        injector.inject_ext()
        injector.inject_int()
        injector.inject_noconflict()
    history = injector.build()
    held = sorted(history.sessions)[-2:]
    on_time = [t for t in history.by_commit_ts() if t.sid not in held]
    late = [t for t in history.by_commit_ts() if t.sid in held]
    batches = []
    third = len(on_time) // 3
    for part in range(3):
        hi = len(on_time) if part == 2 else (part + 1) * third
        chunk = on_time[part * third : hi]
        batches += [chunk[i : i + 30] for i in range(0, len(chunk), 30)]
        due = [t for t in late if part == 2 or t.commit_ts < chunk[-1].commit_ts]
        late = late[len(due) :]
        batches.append(due)
    assert not late and sum(map(len, batches)) == len(history)
    return history, batches


def run_plan(make, per_op, batches, *, collect):
    checker = make()
    try:
        for batch in batches:
            if per_op:
                for txn in batch:
                    checker.receive(txn)
            else:
                checker.receive_many(batch)
            if collect:
                checker.collect_below(None)
        verdicts = normalize_violations(checker.finalize())
        spill = checker.spill_store
        return verdicts, (spill.reload_count if spill is not None else 0)
    finally:
        checker.close()


class TestDelayedArrivalDifferential:
    @pytest.fixture(scope="class", params=[31, 77])
    def plan(self, request):
        history, batches = delayed_plan(request.param)
        offline = {
            "si": normalize_violations(Chronos().check(history)),
            "ser": normalize_violations(ChronosSer().check(history)),
        }
        return history, batches, offline

    @pytest.mark.parametrize("name", sorted(DELAYED_CHECKERS))
    def test_gc_and_reload_preserve_verdicts(self, plan, name):
        history, batches, offline = plan
        make, level, per_op = DELAYED_CHECKERS[name]
        with_gc, reloads = run_plan(make, per_op, batches, collect=True)
        without_gc, _ = run_plan(make, per_op, batches, collect=False)
        assert reloads >= 2, "the delayed sessions never dipped below the watermark"
        assert with_gc == without_gc
        assert split_session_verdicts(with_gc, history) == split_session_verdicts(
            offline[level], history
        )
        assert any(v[0] == "EXT" for v in with_gc)

    def test_re_evicted_segment_range_bounds_its_content(self):
        """Reload, then evict again: the new segment holds data far older
        than the previous boundary and must say so, or the next delayed
        reader's reload would skip it."""
        _history, batches = delayed_plan(31)
        aion = make_aion()
        try:
            first_due = next(i for i, batch in enumerate(batches) if len(batch) != 30)
            for batch in batches[:first_due]:
                aion.receive_many(batch)
                aion.collect_below(None)

            def min_spilled_ts():
                return min(segment.min_ts for segment in aion.spill_store._segments)

            boundary = min_spilled_ts()
            aion.receive_many(batches[first_due])  # reloads everything
            assert len(aion.spill_store) == 0
            report = aion.collect_below(None)  # re-evicts it in one segment
            assert report.evicted_versions > 0
            assert min_spilled_ts() <= boundary
            oldest = min(t.start_ts for t in batches[0])
            assert min_spilled_ts() <= oldest
        finally:
            aion.close()


@pytest.mark.parametrize("name", sorted(ANOMALY_CATALOG))
def test_anomaly_catalog_with_gc_after_every_arrival(name):
    """Every canonical anomaly, shuffled, collecting everything after
    each arrival (so most arrivals land below the watermark and reload):
    all three checkers still equal their offline oracle."""
    history = ANOMALY_CATALOG[name].build()
    arrival = session_respecting_shuffle(history, Random(3))
    offline = {
        "si": normalize_violations(Chronos().check(history)),
        "ser": normalize_violations(ChronosSer().check(history)),
    }
    for checker_name in ("aion", "aion-ser", "sharded-x2"):
        make, level, _ = DELAYED_CHECKERS[checker_name]
        got, _ = run_plan(make, False, [[txn] for txn in arrival], collect=True)
        assert split_session_verdicts(got, history) == split_session_verdicts(
            offline[level], history
        ), (name, checker_name)
