"""Tests for Aion's garbage collection, spilling and reload-on-demand."""

from random import Random

import pytest

from repro.core.aion import Aion, AionConfig
from repro.core.aion_ser import AionSer
from repro.core.chronos import Chronos
from repro.core.chronos_ser import ChronosSer
from repro.core.reference import normalize_violations
from repro.core.sharded import ShardedAion
from repro.db.faults import FaultInjector
from repro.histories.anomalies import ANOMALY_CATALOG
from repro.core.violations import Axiom
from repro.histories.builder import HistoryBuilder
from repro.histories.model import Transaction
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


class TestReloadedConflicts:
    """NOCONFLICT across a spill and a reload: the reloaded entries must
    put their key back among the tangled ones."""

    @staticmethod
    def _pair_then_newer():
        # P=[20,25] and Q=[1,30] conflict; C=[40,41] is the newest write
        # of x, so a collection leaves x holding C alone.
        return [
            Transaction(1, 1, 0, [write("x", "P")], start_ts=20, commit_ts=25),
            Transaction(2, 2, 0, [write("x", "Q")], start_ts=1, commit_ts=30),
            Transaction(3, 3, 0, [write("x", "C")], start_ts=40, commit_ts=41),
        ]

    @pytest.mark.parametrize("name", ["aion", "sharded-x2"])
    def test_write_overlapping_the_later_interval_of_a_spilled_pair(self, name):
        make, _, _ = DELAYED_CHECKERS[name]
        checker = make()
        try:
            checker.receive_many(self._pair_then_newer())
            report = checker.collect_below(None)
            assert (report.evicted_versions, report.evicted_intervals) == (2, 2)
            # A delayed arrival below the watermark reloads the pair ...
            checker.receive(Transaction(4, 4, 0, [write("z", "D")], start_ts=2, commit_ts=3))
            assert checker.spill_store.reload_count == 1
            # ... and W=[5,10] overlaps only Q, the later interval, while
            # the first entry ending after W's start is P, starting at 20.
            late = Transaction(5, 5, 0, [write("x", "W")], start_ts=5, commit_ts=10)
            checker.receive(late)
            result = checker.finalize()
        finally:
            checker.close()
        got = [(v.tid, sorted(v.conflicting_tids)) for v in result.by_axiom(Axiom.NOCONFLICT)]
        assert got == [(1, [2]), (5, [2])]


    @pytest.mark.parametrize("name", ["aion", "sharded-x2"])
    def test_reload_keeps_the_last_writer_at_a_shared_commit_ts(self, name):
        """Two writers of x commit at 5; two cycles spill them into two
        segments, the earlier writer first.  A reader at 7 arriving
        below the watermark reloads both and must see the later writer,
        which takes merging the segments newest first."""
        make, _, _ = DELAYED_CHECKERS[name]
        checker = make()
        try:
            checker.receive_many(
                [
                    Transaction(1, 1, 0, [write("x", "a")], start_ts=1, commit_ts=5),
                    Transaction(2, 2, 0, [write("x", "b")], start_ts=2, commit_ts=5),
                    Transaction(3, 3, 0, [write("y", "c")], start_ts=9, commit_ts=10),
                ]
            )
            assert checker.collect_below(10).evicted_versions == 1  # tid 1's
            checker.receive(Transaction(4, 4, 0, [write("x", "d")], start_ts=15, commit_ts=20))
            assert checker.collect_below(30).evicted_versions == 1  # tid 2's
            assert len(checker.spill_store) == 2
            checker.receive(Transaction(5, 5, 0, [read("x", "b")], start_ts=7, commit_ts=8))
            result = checker.finalize()
        finally:
            checker.close()
        assert result.by_axiom(Axiom.EXT) == []
        got = [(v.tid, sorted(v.conflicting_tids)) for v in result.by_axiom(Axiom.NOCONFLICT)]
        assert got == [(1, [2])]


class TestIntervalCounts:
    """``intervals`` counts the entries the NOCONFLICT query walks: every
    version under SI, none under SER — in a GC report and, on a sharded
    checker, in each shard's row."""

    @pytest.mark.parametrize("name", ["aion", "aion-ser", "sharded-x2"])
    def test_intervals_are_the_versions_the_overlap_query_walks(self, name):
        make, level, _ = DELAYED_CHECKERS[name]
        history, batches = delayed_plan(31)
        checker = make()
        try:
            evicted = []
            for batch in batches:
                checker.receive_many(batch)
                if isinstance(checker, ShardedAion):
                    for row in checker.shard_stats():
                        assert row["intervals"] == row["versions"]
                report = checker.collect_below(None)
                evicted.append((report.evicted_versions, report.evicted_intervals))
        finally:
            checker.close()
        assert sum(versions for versions, _ in evicted) > 0
        for versions, intervals in evicted:
            assert intervals == (versions if level == "si" else 0)


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
    injector = FaultInjector(history, seed=seed)
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


class TestCollectAtThreshold:
    """The one GC trigger the runner's ``checking-gc`` and the daemon's
    ``gc_threshold`` share: no cycle while fewer than ``threshold``
    arrivals are resident, and at or above it a cycle below the watermark
    that spares the newest ``max(1, threshold // 2)`` — on every checker
    that inherits it."""

    @pytest.mark.parametrize("threshold", [0, 1, 2, 25, 90])
    @pytest.mark.parametrize("name", ["aion", "aion-ser", "sharded-x2"])
    def test_collects_once_the_threshold_is_resident(self, name, threshold):
        make, _, _ = DELAYED_CHECKERS[name]
        _, batches = delayed_plan(31)
        without_gc, _ = run_plan(make, False, batches, collect=False)
        checker = make()
        cycles = 0
        try:
            for batch in batches:
                checker.receive_many(batch)
                before = checker.resident_txn_count
                expected = None
                if threshold > 0 and before >= threshold:
                    expected = checker.suggest_gc_ts(keep_recent=max(1, threshold // 2))
                report = checker.collect_at_threshold(threshold)
                if expected is None:
                    assert report is None
                    assert checker.resident_txn_count == before
                    continue
                cycles += 1
                assert report.requested_ts == expected
                assert report.effective_ts <= expected
                assert checker.resident_txn_count == before - report.evicted_txns
            verdicts = normalize_violations(checker.finalize())
        finally:
            checker.close()
        assert verdicts == without_gc
        if threshold == 0:
            assert cycles == 0
        else:
            assert 0 < cycles <= len(batches)



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
