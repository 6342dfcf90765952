"""Tests for EXT verdict tracking: flip-flops, timeouts, rectify times."""

from repro.core.common import BOTTOM
from repro.core.ext_status import (
    EV_FLIPS,
    EV_KEY,
    EV_OK,
    EV_TID,
    ExtStatusTracker,
    FlipFlopStats,
)


def track(tracker, tid, key, snapshot_ts, *, actual, expected, arm=True):
    """Register one external read at time 0 through the batch entry
    points the kernel uses (the initial verdict is ``expected == actual``),
    arming the transaction's timer unless more of its reads follow."""
    tracker.track_columns([tid], [key], [snapshot_ts], [actual], [expected], 0.0, BOTTOM)
    if arm:
        tracker.arm_timers((tid,), 0.0)


def make_tracker(timeout=5.0, violations=None, finalized=None):
    violations = violations if violations is not None else []
    finalized = finalized if finalized is not None else []
    return ExtStatusTracker(
        timeout=timeout,
        on_violation=violations.append,
        on_finalized=finalized.append,
    ), violations, finalized


class TestLifecycle:
    def test_ok_verdict_finalizes_silently(self):
        tracker, violations, finalized = make_tracker()
        track(tracker, 1, "x", 10, actual="v", expected="v")
        done = tracker.advance_to(5.0)
        assert len(done) == 1 and done[0][EV_OK]
        assert violations == []
        assert [v[EV_TID] for v in finalized] == [1]

    def test_wrong_verdict_reported_at_timeout(self):
        tracker, violations, _ = make_tracker()
        track(tracker, 1, "x", 10, actual="v", expected="w")
        assert tracker.advance_to(4.9) == []  # not yet due
        tracker.advance_to(5.0)
        assert len(violations) == 1
        assert violations[0][EV_TID] == 1 and violations[0][EV_KEY] == "x"

    def test_rectified_before_timeout_not_reported(self):
        tracker, violations, _ = make_tracker()
        track(tracker, 1, "x", 10, actual="v", expected="w")
        tracker.reevaluate(1, "x", ok=True, expected="v", now=0.010)
        tracker.advance_to(10.0)
        assert violations == []
        assert tracker.stats.rectify_times == [0.010]

    def test_finalized_pairs_never_reevaluated(self):
        tracker, violations, _ = make_tracker()
        track(tracker, 1, "x", 10, actual="v", expected="w")
        tracker.advance_to(5.0)
        assert tracker.is_timed_out(1)
        assert tracker.reevaluate(1, "x", ok=True, expected="v", now=6.0) is None
        assert len(violations) == 1  # still exactly one report

    def test_flush_finalizes_everything(self):
        tracker, violations, _ = make_tracker(timeout=float("inf"))
        track(tracker, 1, "x", 10, actual="v", expected="w")
        assert tracker.advance_to(1e9) == []  # infinite timeout never due
        tracker.flush()
        assert len(violations) == 1

    def test_multiple_keys_per_txn(self):
        tracker, violations, _ = make_tracker()
        track(tracker, 1, "x", 10, actual="a", expected="b", arm=False)
        track(tracker, 1, "y", 10, actual="c", expected="c")
        tracker.advance_to(5.0)
        assert [(v[EV_TID], v[EV_KEY]) for v in violations] == [(1, "x")]


class TestFlipFlopAccounting:
    def test_flip_counted_on_change_only(self):
        tracker, _, _ = make_tracker()
        track(tracker, 1, "x", 10, actual="v", expected="v", arm=False)
        verdict = tracker.reevaluate(1, "x", ok=True, expected="v", now=1.0)  # no change
        assert verdict[EV_FLIPS] == 0
        tracker.reevaluate(1, "x", ok=False, expected="w", now=2.0)
        assert verdict[EV_FLIPS] == 1
        tracker.reevaluate(1, "x", ok=True, expected="v", now=3.0)
        assert verdict[EV_FLIPS] == 2
        assert tracker.stats.rectify_times == [1.0]  # wrong from t=2 to t=3

    def test_histogram_buckets(self):
        stats = FlipFlopStats()
        stats.flips_per_pair = {1: 10, 2: 5, 3: 2, 7: 1}
        histogram = stats.flip_histogram()
        assert histogram == {"1": 10, "2": 5, "3": 2, "4+": 1}

    def test_rectify_histogram_buckets(self):
        stats = FlipFlopStats()
        stats.rectify_times = [0.0005, 0.0015, 0.005, 0.05, 0.5, 2.0]
        histogram = stats.rectify_histogram()
        assert histogram == {
            "0-1ms": 1,
            "1-2ms": 1,
            "2-10ms": 1,
            "10-99ms": 1,
            "100-999ms": 1,
            "1000+ms": 1,
        }

    def test_stats_final_counts(self):
        tracker, _, _ = make_tracker()
        track(tracker, 1, "x", 10, actual="v", expected="w")
        tracker.reevaluate(1, "x", ok=True, expected="v", now=0.5)
        tracker.reevaluate(1, "x", ok=False, expected="z", now=0.7)
        tracker.advance_to(5.0)
        assert tracker.stats.n_finalized == 1
        assert tracker.stats.n_final_violations == 1
        assert tracker.stats.flips_per_pair == {2: 1}
        assert tracker.stats.flipped_tids == {1}

    def test_min_pending_snapshot(self):
        tracker, _, _ = make_tracker()
        assert tracker.min_pending_snapshot_ts() is None
        track(tracker, 1, "x", 30, actual="v", expected="v", arm=False)
        track(tracker, 2, "y", 10, actual="v", expected="v", arm=False)
        assert tracker.min_pending_snapshot_ts() == 10
