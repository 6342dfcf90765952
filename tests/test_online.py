"""Tests for the online infrastructure: clock, delays, collector, runner."""

from random import Random

import pytest

from repro.core.aion import Aion, AionConfig
from repro.online.clock import SimClock
from repro.online.collector import ArrivalSchedule, HistoryCollector
from repro.online.delays import NoDelay, NormalDelay
from repro.online.metrics import MemorySampler, ThroughputSeries
from repro.online.runner import GcPolicy, OnlineRunner


class TestSimClock:
    def test_monotonic(self):
        clock = SimClock()
        assert clock() == 0.0
        clock.advance(1.5)
        assert clock.now() == 1.5
        with pytest.raises(ValueError):
            clock.advance(-1)

    def test_advance_to_never_rewinds(self):
        clock = SimClock(10.0)
        clock.advance_to(5.0)
        assert clock.now() == 10.0
        clock.advance_to(12.0)
        assert clock.now() == 12.0


class TestDelays:
    def test_no_delay(self):
        assert NoDelay().delay_seconds(Random(1)) == 0.0

    def test_normal_delay_units_and_clamp(self):
        model = NormalDelay(100.0, 10.0)
        rng = Random(2)
        samples = [model.delay_seconds(rng) for _ in range(1000)]
        mean = sum(samples) / len(samples)
        assert 0.095 < mean < 0.105  # milliseconds converted to seconds
        assert all(s >= 0 for s in samples)
        clamped = NormalDelay(0.0, 100.0)
        assert all(clamped.delay_seconds(rng) >= 0 for _ in range(100))

    def test_zero_std_is_constant(self):
        model = NormalDelay(50.0, 0.0)
        rng = Random(3)
        assert model.delay_seconds(rng) == 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            NormalDelay(10, -1)


class TestCollector:
    def test_no_delay_preserves_commit_order(self, si_history):
        collector = HistoryCollector(batch_size=100, arrival_tps=10_000)
        schedule = collector.schedule(si_history)
        assert len(schedule) == len(si_history)
        assert schedule.out_of_order_fraction() == 0.0
        times = [t for t, _ in schedule]
        assert times == sorted(times)

    def test_delays_cause_reordering(self, si_history):
        collector = HistoryCollector(
            batch_size=100, arrival_tps=100_000,
            delay_model=NormalDelay(100, 20), seed=5,
        )
        schedule = collector.schedule(si_history)
        assert schedule.out_of_order_fraction() > 0.0

    def test_session_order_always_preserved(self, si_history):
        collector = HistoryCollector(
            batch_size=50, arrival_tps=1_000_000,
            delay_model=NormalDelay(100, 50), seed=6,
        )
        schedule = collector.schedule(si_history)
        last_sno = {}
        for _, txn in schedule:
            assert last_sno.get(txn.sid, -1) == txn.sno - 1, "session order broken"
            last_sno[txn.sid] = txn.sno

    def test_batch_cadence(self, si_history):
        collector = HistoryCollector(batch_size=100, arrival_tps=10_000)
        schedule = collector.schedule(si_history)
        # 100-txn batches at 10K TPS leave every 10 ms.
        first_batch_time = schedule.arrivals[0][0]
        t_101 = schedule.arrivals[100][0]
        assert abs((t_101 - first_batch_time) - 0.01) < 1e-9

    def test_makespan_positive(self, si_history):
        collector = HistoryCollector(batch_size=500, arrival_tps=25_000)
        assert collector.schedule(si_history).makespan > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            HistoryCollector(batch_size=0)
        with pytest.raises(ValueError):
            HistoryCollector(arrival_tps=0)

    def test_iter_batches_cadence_and_partition(self, si_history):
        collector = HistoryCollector(batch_size=100, arrival_tps=10_000)
        txns = si_history.by_commit_ts()
        batches = list(collector.iter_batches(txns))
        assert sum(len(batch) for _, batch in batches) == len(txns)
        assert [txn for _, batch in batches for txn in batch] == txns
        assert all(len(batch) == 100 for _, batch in batches[:-1])
        departures = [depart for depart, _ in batches]
        # 100-txn batches at 10K TPS depart every 10 ms, starting at 0.
        for index, depart in enumerate(departures):
            assert abs(depart - index * 0.01) < 1e-12

    def test_adversarial_delays_trigger_session_holdback(self):
        """Delays crafted to invert every same-session pair: the
        ``_SESSION_EPSILON`` holdback must fire and restore the order."""
        from repro.histories.builder import HistoryBuilder
        from repro.histories.ops import write
        from repro.online.collector import _SESSION_EPSILON

        builder = HistoryBuilder(with_init=False)
        n_sessions, per_session = 3, 20
        ts = 0
        for sno in range(per_session):
            for sid in range(1, n_sessions + 1):
                ts += 2
                builder.txn(sid=sid, start=ts, commit=ts + 1, ops=[write(f"k{sid}", sno)])
        history = builder.build()

        class ShrinkingDelay:
            """Strictly decreasing delays: within a batch, every later
            transaction would arrive *before* every earlier one."""

            def __init__(self) -> None:
                self.remaining = 10.0

            def delay_seconds(self, rng) -> float:
                self.remaining -= 0.01
                return self.remaining

        collector = HistoryCollector(
            batch_size=n_sessions * per_session,
            arrival_tps=1_000_000,
            delay_model=ShrinkingDelay(),
        )
        schedule = collector.schedule(history)

        last_sno = {}
        holdbacks = 0
        last_arrival = {}
        for arrival, txn in schedule:
            assert last_sno.get(txn.sid, -1) == txn.sno - 1, "session order broken"
            last_sno[txn.sid] = txn.sno
            previous = last_arrival.get(txn.sid)
            if previous is not None and abs((arrival - previous) - _SESSION_EPSILON) < 1e-12:
                holdbacks += 1
            last_arrival[txn.sid] = arrival
        # Every same-session successor was held back to its predecessor's
        # floor plus epsilon — (per_session - 1) pairs per session.
        assert holdbacks == n_sessions * (per_session - 1)


class TestMetrics:
    def test_throughput_buckets(self):
        series = ThroughputSeries()
        for t in (0.1, 0.2, 1.5, 2.9):
            series.record(t)
        points = dict(series.series())
        assert points[0.0] == 2 and points[1.0] == 1 and points[2.0] == 1
        assert series.total == 4
        assert series.peak_tps() == 2

    def test_sustained_skips_warmup(self):
        series = ThroughputSeries()
        for _ in range(100):
            series.record(0.5)  # warm-up burst
        for t in range(1, 5):
            series.record(t + 0.5)
        assert series.sustained_tps() == 1.0

    def test_negative_and_straddling_timestamps_bucket_by_floor(self):
        """Regression: ``int(t / w)`` truncates toward zero, folding every
        timestamp in ``(-1, 1)`` bucket widths into bucket 0; bucketing
        must use floor semantics instead."""
        series = ThroughputSeries()
        series.record(-0.5)
        series.record(0.5)
        points = dict(series.series())
        assert points[-1.0] == 1 and points[0.0] == 1
        assert series.peak_tps() == 1  # not 2 collapsed into one bucket
        assert series.total == 2

        wide = ThroughputSeries(bucket_seconds=2.0)
        wide.record(-3.0)  # exact multiple: floor(-1.5) = -2, not -1
        wide.record(-0.1)
        wide.record(0.0)
        assert dict(wide.series()) == {-4.0: 0.5, -2.0: 0.5, 0.0: 0.5}

    def test_series_extends_to_bucket_zero(self):
        series = ThroughputSeries()
        series.record(2.5)
        assert [t for t, _ in series.series()] == [0.0, 1.0, 2.0]

    def test_snapshot_counters(self):
        series = ThroughputSeries()
        for t in (0.1, 0.2, 1.5):
            series.record(t)
        snap = series.snapshot()
        assert snap["total"] == 3
        assert snap["buckets"] == 2
        assert snap["peak_tps"] == 2.0

    def test_memory_sampler_cadence(self):
        values = iter(range(100))
        sampler = MemorySampler(lambda: next(values), every_n=3)
        for i in range(9):
            sampler.maybe_sample(float(i))
        assert len(sampler.samples) == 3
        sampler.force_sample(99.0)
        assert len(sampler.samples) == 4
        assert sampler.peak_bytes == max(v for _, v in sampler.samples)


class TestRunner:
    def _schedule(self, history, **kwargs):
        return HistoryCollector(
            batch_size=200, arrival_tps=50_000,
            delay_model=NormalDelay(50, 5), seed=7, **kwargs,
        ).schedule(history)

    def _run(self, schedule, *, batch_size=1, charge_check_time=True, **runner_kwargs):
        clock = SimClock()
        checker = Aion(AionConfig(timeout=float("inf")), clock=clock)
        report = OnlineRunner(checker, clock, **runner_kwargs).run(
            schedule, batch_size=batch_size, charge_check_time=charge_check_time
        )
        checker.close()
        return report

    def test_tracking_mode_clock_follows_arrivals(self, si_history):
        schedule = self._schedule(si_history)
        report = self._run(schedule, charge_check_time=False)
        assert report.n_processed == len(si_history)
        assert abs(report.virtual_seconds - schedule.makespan) < 1e-6
        assert report.result.is_valid

    def test_tracking_batches_keep_verdicts_and_clock(self, si_history):
        """A batch of 50 arrivals is checked at its last arrival's time:
        the clock still ends at the makespan and the verdicts equal the
        per-arrival run's."""
        from repro.core.reference import normalize_violations
        from repro.db.faults import FaultInjector

        injector = FaultInjector(si_history, seed=95)
        injector.inject_mix(6)
        faulted = injector.build()
        schedule = self._schedule(faulted)
        per_arrival = self._run(schedule, charge_check_time=False)
        batched = self._run(schedule, batch_size=50, charge_check_time=False)
        assert not per_arrival.result.is_valid
        assert normalize_violations(batched.result) == normalize_violations(per_arrival.result)
        assert batched.virtual_seconds == schedule.makespan
        assert batched.throughput.total == len(schedule)

    def test_capacity_mode_advances_with_work(self, si_history):
        schedule = self._schedule(si_history)
        report = self._run(schedule)
        assert report.virtual_seconds > schedule.makespan  # processing cost added
        assert report.overall_tps > 0
        assert report.result.is_valid

    def test_gc_policies_trigger(self, si_history):
        schedule = self._schedule(si_history)
        for policy in (GcPolicy.CHECKING_GC, GcPolicy.FULL_GC):
            report = self._run(schedule, gc_policy=policy, gc_threshold=300)
            assert report.n_gc_cycles >= 1, policy
            assert report.result.is_valid, policy

    def test_memory_capped_mode(self, si_history):
        schedule = self._schedule(si_history)
        baseline = self._run(schedule, memory_sample_every=200)
        peak = max(size for _, size in baseline.memory_samples)
        report = self._run(
            schedule, gc_policy=GcPolicy.MEMORY_CAP, max_bytes=int(peak * 0.5), memory_sample_every=150
        )
        assert report.n_gc_cycles >= 1
        assert report.result.is_valid
        assert report.memory_samples

    def test_memory_capped_short_schedule_still_samples(self, si_history):
        """A schedule shorter than ``memory_sample_every`` must still
        produce at least one memory sample (the first decision window
        used to start a full countdown late)."""
        schedule = self._schedule(si_history)
        short = ArrivalSchedule(schedule.arrivals[:50])
        report = self._run(
            short, gc_policy=GcPolicy.MEMORY_CAP, max_bytes=10**12, memory_sample_every=500
        )
        assert report.memory_samples, "short run produced no memory sample"
        assert report.n_gc_cycles == 0  # generous cap: samples only

    def test_memory_cap_needs_its_budget_and_cadence(self):
        clock = SimClock()
        checker = Aion(AionConfig(timeout=float("inf")), clock=clock)
        with pytest.raises(ValueError):
            OnlineRunner(checker, clock, gc_policy=GcPolicy.MEMORY_CAP, memory_sample_every=10)
        with pytest.raises(ValueError):
            OnlineRunner(checker, clock, gc_policy=GcPolicy.MEMORY_CAP, max_bytes=10**6)
        checker.close()
