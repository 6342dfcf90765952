"""End-to-end integration tests: workload → engine → CDC → collector →
checker, across isolation levels, data types and delivery regimes."""

import pytest

from repro.baselines.elle import ElleList
from repro.baselines.emme import EmmeSer, EmmeSi
from repro.core.aion import Aion, AionConfig
from repro.core.aion_ser import AionSer
from repro.core.chronos import Chronos
from repro.core.chronos_ser import ChronosSer
from repro.core.reference import normalize_violations
from repro.db.cdc import parse_wal
from repro.db.engine import IsolationLevel
from repro.db.faults import FaultInjector
from repro.histories.serialization import load_history, save_history
from repro.online.clock import SimClock
from repro.online.collector import HistoryCollector
from repro.online.delays import NormalDelay
from repro.online.runner import GcPolicy, OnlineRunner
from repro.workloads.generator import generate_default_history
from repro.workloads.list_workload import generate_list_history
from repro.workloads.rubis import generate_rubis_history
from repro.workloads.spec import WorkloadSpec
from repro.workloads.twitter import generate_twitter_history


class TestOfflinePipeline:
    def test_generate_save_load_check(self, tmp_path, si_history):
        path = tmp_path / "history.jsonl"
        save_history(si_history, path)
        loaded = load_history(path)
        assert Chronos().check(loaded).is_valid
        # Verdicts survive serialization even for corrupted histories.
        injector = FaultInjector(si_history, seed=3)
        injector.inject_mix(5)
        bad = injector.build()
        bad_path = tmp_path / "bad.jsonl"
        save_history(bad, bad_path)
        original = normalize_violations(Chronos().check(bad))
        reloaded = normalize_violations(Chronos().check(load_history(bad_path)))
        assert original == reloaded

    def test_wal_pipeline(self):
        from repro.workloads.generator import build_database

        spec = WorkloadSpec(n_sessions=6, n_transactions=300, ops_per_txn=8, n_keys=60, seed=91)
        db = build_database(spec)
        generate_default_history(spec, database=db)
        history = parse_wal(db.cdc.wal_lines())
        assert Chronos().check(history).is_valid
        assert EmmeSi().check(history).is_valid

    def test_si_engine_satisfies_si_not_ser(self, si_history):
        assert Chronos().check(si_history).is_valid
        assert not ChronosSer().check(si_history).is_valid

    def test_ser_engine_satisfies_both(self, ser_history):
        assert ChronosSer().check(ser_history).is_valid
        assert Chronos().check(ser_history).is_valid
        assert EmmeSer().check(ser_history).is_valid

    def test_list_pipeline_agrees(self, list_history):
        assert Chronos().check(list_history).is_valid
        assert ElleList().check(list_history).is_valid


class TestOnlinePipeline:
    def _online_si(self, history, **runner_kwargs):
        schedule = HistoryCollector(
            batch_size=250,
            arrival_tps=50_000,
            delay_model=NormalDelay(80, 15),
            seed=92,
        ).schedule(history)
        clock = SimClock()
        checker = Aion(AionConfig(timeout=float("inf")), clock=clock)
        report = OnlineRunner(checker, clock, **runner_kwargs).run_capacity(schedule)
        checker.close()
        return report

    def test_live_cdc_to_online_checker(self):
        """Tail the CDC during generation and check truly online."""
        from repro.db.engine import Database

        spec = WorkloadSpec(n_sessions=6, n_transactions=400, ops_per_txn=8, n_keys=80, seed=93)
        db = Database()
        checker = Aion(AionConfig(timeout=float("inf")), clock=lambda: 0.0)
        # Subscribe before initialization so ⊥T reaches the checker too.
        db.cdc.subscribe(checker.receive)
        db.initialize(spec.keys, 0)
        generate_default_history(spec, database=db)
        result = checker.finalize()
        assert result.is_valid
        assert checker.processed == 401  # ⊥T + 400 workload transactions
        checker.close()

    def test_delayed_delivery_matches_offline(self, si_history):
        report = self._online_si(si_history)
        offline = normalize_violations(Chronos().check(si_history))
        assert normalize_violations(report.result) == offline

    def test_delayed_delivery_with_gc_matches_offline(self, si_history):
        report = self._online_si(
            si_history, gc_policy=GcPolicy.CHECKING_GC, gc_threshold=300
        )
        offline = normalize_violations(Chronos().check(si_history))
        assert normalize_violations(report.result) == offline

    def test_faulted_stream_detected_online(self):
        history = generate_default_history(
            WorkloadSpec(n_sessions=6, n_transactions=400, ops_per_txn=8, n_keys=60, seed=94)
        )
        injector = FaultInjector(history, seed=95)
        labels = injector.inject_mix(6)
        bad = injector.build()
        report = self._online_si(bad)
        found = {(v.axiom, v.tid) for v in report.result.violations}
        for label in labels:
            assert any((label.axiom, tid) in found for tid in label.tids), label

    def test_app_workload_online_ser(self):
        history = generate_rubis_history(600, seed=96, isolation=IsolationLevel.SER)
        schedule = HistoryCollector(
            batch_size=200, arrival_tps=20_000,
            delay_model=NormalDelay(50, 10), seed=97,
        ).schedule(history)
        clock = SimClock()
        checker = AionSer(AionConfig(timeout=float("inf")), clock=clock)
        report = OnlineRunner(checker, clock).run_capacity(schedule)
        assert report.result.is_valid
        checker.close()

    def test_twitter_online_si(self):
        history = generate_twitter_history(500, seed=98)
        report = self._online_si(history)
        assert report.result.is_valid


class TestScaleSmoke:
    """Larger single-shot runs guarding against quadratic regressions."""

    def test_chronos_20k(self):
        import time

        history = generate_default_history(
            WorkloadSpec(n_sessions=24, n_transactions=20_000, ops_per_txn=10,
                         n_keys=1000, seed=99)
        )
        t0 = time.perf_counter()
        assert Chronos().check(history).is_valid
        assert time.perf_counter() - t0 < 10.0

    def test_aion_10k_out_of_order(self):
        import time

        history = generate_default_history(
            WorkloadSpec(n_sessions=24, n_transactions=10_000, ops_per_txn=8,
                         n_keys=500, seed=100)
        )
        schedule = HistoryCollector(
            batch_size=500, arrival_tps=100_000,
            delay_model=NormalDelay(100, 10), seed=101,
        ).schedule(history)
        clock = SimClock()
        checker = Aion(AionConfig(timeout=float("inf")), clock=clock)
        t0 = time.perf_counter()
        for _, txn in schedule:
            checker.receive(txn)
        result = checker.finalize()
        assert time.perf_counter() - t0 < 30.0
        assert result.is_valid
        checker.close()
