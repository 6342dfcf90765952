"""Tests for EXT verdict tracking: flip-flops, timeouts, rectify times.

Written against what the tracker *does* — which violations it reports
and when, and what ``FlipFlopStats`` accumulates — not against how it
lays a verdict out in memory, except for ``TestRecordLayout`` and
``TestBoundedStats``, which pin the bytes a pending read and the
statistics cost.
"""

import sys

import pytest

from repro.core.aion import Aion, AionConfig
from repro.core.common import BOTTOM
from repro.core.ext_status import (
    REC_FLIPPED,
    REC_SNAPSHOT_TS,
    REC_TID,
    ExtStatusTracker,
    FlipFlopStats,
    record_keys,
)
from repro.histories.model import Transaction
from repro.histories.ops import read, write
from repro.service.framing import HEADER_SIZE, K_SUBMIT, decode_frame_payload, encode_submit_frame
from repro.util.sizeof import deep_sizeof


def rectified(stats):
    """How many wrong verdicts were rectified, and their summed times."""
    return stats.n_rectified, stats.rectify_seconds


def track(tracker, tid, reads, *, snapshot_ts=10, now=0.0):
    """Register one transaction's external reads — ``{key: (actual,
    expected)}`` — through the batch entry points the kernel uses (the
    verdict, then and at every re-check, is ``expected == actual``) and
    arm its timer."""
    keys = list(reads)
    tracker.track_columns(
        [tid] * len(keys), keys, [snapshot_ts] * len(keys),
        [reads[key][0] for key in keys], [reads[key][1] for key in keys], now, [len(keys)],
    )
    tracker.arm_timers((tid,), now)


def observed(record):
    """The values ``record``'s reads observed, in read order."""
    width = len(record_keys(record))
    return record[REC_SNAPSHOT_TS + 1 + width : REC_SNAPSHOT_TS + 1 + 2 * width]


def collect_flipped_tids(checker):
    """A set that fills with the tid of every record ``checker``
    finalizes with its flip slot set — the flipped transactions
    ``FlipFlopStats.n_flipped_txns`` counts, named — by wrapping the
    tracker's finalized-batch hook."""
    flipped = set()
    ext = checker._ext
    drop_reads = ext._on_finalized_batch

    def collect(records, drained):
        flipped.update(record[REC_TID] for record in records if record[REC_FLIPPED])
        drop_reads(records, drained)

    ext._on_finalized_batch = collect
    return flipped


def make_tracker(timeout=5.0):
    """A tracker plus the two logs its callbacks append to: reported
    violations as ``(tid, key, expected, actual)`` and, per finalization
    call, ``(tids finalized, nothing left pending)``."""
    violations = []
    finalized = []
    tracker = ExtStatusTracker(
        timeout=timeout,
        on_violation=lambda *violation: violations.append(violation),
        on_finalized_batch=lambda records, drained: finalized.append(
            ([record[REC_TID] for record in records], drained)
        ),
    )
    return tracker, violations, finalized


class TestLifecycle:
    def test_ok_verdict_finalizes_silently(self):
        tracker, violations, finalized = make_tracker()
        track(tracker, 1, {"x": ("v", "v")})
        done = tracker.advance_to(5.0)
        assert [(r[REC_TID], record_keys(r), r[REC_SNAPSHOT_TS]) for r in done] == [(1, ["x"], 10)]
        assert violations == []
        assert finalized == [([1], True)]
        assert tracker.stats.n_finalized == 1 and tracker.stats.n_final_violations == 0

    def test_wrong_verdict_reported_at_timeout(self):
        tracker, violations, _ = make_tracker()
        track(tracker, 1, {"x": ("v", "w")})
        assert tracker.advance_to(4.9) == []  # not yet due
        assert violations == []
        tracker.advance_to(5.0)
        assert violations == [(1, "x", "w", "v")]

    def test_bottom_expected_matches_a_none_read_only(self):
        tracker, violations, _ = make_tracker()
        track(tracker, 1, {"x": (None, BOTTOM)})
        track(tracker, 2, {"x": ("v", BOTTOM)})
        tracker.flush()
        assert violations == [(2, "x", BOTTOM, "v")]

    def test_recheck_against_bottom_applies_the_same_rule(self):
        """A re-check is decided from the record's own observed value: ⊥v
        (nothing visible, or ⊥v itself written) suits a ``None`` read."""
        tracker, violations, _ = make_tracker()
        track(tracker, 1, {"x": (None, "w")})
        track(tracker, 2, {"x": ("v", "v")})
        tracker.reevaluate(1, "x", BOTTOM, 1.0)
        tracker.reevaluate(2, "x", BOTTOM, 1.0)
        tracker.flush()
        assert violations == [(2, "x", BOTTOM, "v")]
        assert rectified(tracker.stats) == (1, 1.0) and tracker.stats.n_flipped_txns == 2

    def test_rectified_before_timeout_not_reported(self):
        tracker, violations, _ = make_tracker()
        track(tracker, 1, {"x": ("v", "w")})
        tracker.reevaluate(1, "x", "v", 0.010)
        tracker.advance_to(10.0)
        assert violations == []
        assert rectified(tracker.stats) == (1, 0.010)

    def test_report_carries_the_last_expected_value(self):
        tracker, violations, _ = make_tracker()
        track(tracker, 1, {"x": ("v", "w")})
        tracker.reevaluate(1, "x", "u", 1.0)  # still wrong
        tracker.advance_to(5.0)
        assert violations == [(1, "x", "u", "v")]
        assert tracker.stats.flips_per_pair == {}  # wrong → wrong is no flip

    def test_flush_finalizes_everything(self):
        tracker, violations, _ = make_tracker(timeout=float("inf"))
        track(tracker, 1, {"x": ("v", "w")})
        assert tracker.advance_to(1e9) == []  # infinite timeout never due
        tracker.flush()
        assert violations == [(1, "x", "w", "v")]

    def test_multiple_keys_per_txn_report_in_read_order(self):
        tracker, violations, _ = make_tracker()
        track(tracker, 1, {"x": ("a", "b"), "y": ("c", "c"), "z": ("d", "e")})
        tracker.advance_to(5.0)
        assert violations == [(1, "x", "b", "a"), (1, "z", "e", "d")]
        assert tracker.stats.n_pairs == tracker.stats.n_finalized == 3

    @pytest.mark.parametrize("apart", [False, True])
    def test_retransmitted_transaction_has_one_verdict_per_key(self, apart):
        # Both copies' reads are in the owner's read index, so a writer
        # re-evaluates the pair twice; neither copy may be left behind
        # with the stale ⊥ it arrived with.
        tracker, violations, _ = make_tracker()
        copy = ([1, 1], ["x", "y"], [10, 10], ["a", "b"], ["q", "b"])
        if apart:
            tracker.track_columns(*copy, 0.0, [2])
            tracker.track_columns(*copy, 0.0, [2])
        else:
            tracker.track_columns(*(column * 2 for column in copy), 0.0, [2, 4])
        tracker.arm_timers((1, 1), 0.0)
        tracker.reevaluate(1, "x", "a", 1.0)
        tracker.reevaluate(1, "x", "a", 1.0)
        done = tracker.flush()
        assert [record_keys(record) for record in done] == [["x", "y"]]
        assert violations == []
        assert tracker.stats.n_finalized == 2 and rectified(tracker.stats) == (1, 1.0)


class TestReevaluationIsANoOp:
    """… for a pair the tracker does not (or no longer) hold."""

    def untouched(self, tracker):
        stats = tracker.stats
        return (stats.flips_per_pair, stats.n_flipped_txns, rectified(stats)) == ({}, 0, (0, 0.0))

    def test_unknown_transaction(self):
        tracker, _, _ = make_tracker()
        tracker.reevaluate(7, "x", "w", 1.0)
        assert self.untouched(tracker) and tracker.flush() == []

    def test_unknown_key_of_a_tracked_transaction(self):
        tracker, violations, _ = make_tracker()
        track(tracker, 1, {"x": ("v", "v")})
        tracker.reevaluate(1, "y", "w", 1.0)
        tracker.flush()
        assert self.untouched(tracker) and violations == []

    def test_timed_out_pair(self):
        tracker, violations, _ = make_tracker()
        track(tracker, 1, {"x": ("v", "w")})
        tracker.advance_to(5.0)
        tracker.reevaluate(1, "x", "v", 6.0)
        tracker.flush()
        assert self.untouched(tracker)
        assert violations == [(1, "x", "w", "v")]  # still exactly one report

    def test_flushed_pair(self):
        tracker, violations, _ = make_tracker(timeout=float("inf"))
        track(tracker, 1, {"x": ("v", "v")})
        tracker.flush()
        tracker.reevaluate(1, "x", "w", 1.0)
        tracker.flush()
        assert self.untouched(tracker) and violations == []


class TestFlipFlopAccounting:
    def test_flip_counted_on_change_only(self):
        tracker, _, _ = make_tracker()
        track(tracker, 1, {"x": ("v", "v")})
        tracker.reevaluate(1, "x", "v", 1.0)  # no change
        assert tracker.stats.n_flipped_txns == 0
        tracker.reevaluate(1, "x", "w", 2.0)
        assert tracker.stats.n_flipped_txns == 1
        tracker.reevaluate(1, "x", "v", 3.0)
        assert tracker.stats.n_flipped_txns == 1  # counted at the first flip only
        assert rectified(tracker.stats) == (1, 1.0)  # wrong from t=2 to t=3
        tracker.flush()
        assert tracker.stats.flips_per_pair == {2: 1}

    def test_rectify_time_runs_from_first_wrong_not_first_seen(self):
        tracker, _, _ = make_tracker()
        track(tracker, 1, {"x": ("v", "w")}, now=1.0)  # wrong on arrival, at t=1
        track(tracker, 2, {"x": ("v", "v")}, now=1.0)
        tracker.reevaluate(2, "x", "w", 1.5)
        tracker.reevaluate(1, "x", "v", 2.0)
        tracker.reevaluate(2, "x", "v", 4.0)
        assert rectified(tracker.stats) == (2, 3.5)
        assert tracker.stats.rectify_counts == [0, 0, 0, 0, 0, 2]

    def test_pairs_of_one_transaction_flip_independently(self):
        tracker, violations, _ = make_tracker()
        track(tracker, 1, {"x": ("a", "a"), "y": ("b", "b"), "z": ("c", "c")})
        for now in (1.0, 2.0, 3.0):
            tracker.reevaluate(1, "y", "b" if now == 2.0 else "?", now)
        tracker.reevaluate(1, "z", "q", 3.5)
        tracker.advance_to(5.0)
        assert tracker.stats.flips_per_pair == {3: 1, 1: 1}  # y: 3, z: 1, x: 0
        assert tracker.stats.n_flipped_txns == 1
        assert violations == [(1, "y", "?", "b"), (1, "z", "q", "c")]
        assert rectified(tracker.stats) == (1, 1.0)  # y, wrong from t=1 to t=2

    def test_histogram_buckets(self):
        stats = FlipFlopStats()
        stats.flips_per_pair = {1: 10, 2: 5, 3: 2, 7: 1}
        histogram = stats.flip_histogram()
        assert histogram == {"1": 10, "2": 5, "3": 2, "4+": 1}

    def test_rectify_histogram_buckets(self):
        """Each bucket holds its lower edge and stops short of its upper."""
        tracker, _, _ = make_tracker()
        times = [0.0005, 0.001, 0.0015, 0.002, 0.005, 0.010, 0.05, 0.099, 0.5, 1.0, 2.0]
        for tid, _ in enumerate(times):
            track(tracker, tid, {"x": ("v", "w")})  # wrong from t=0
        for tid, now in enumerate(times):
            tracker.reevaluate(tid, "x", "v", now)
        assert tracker.stats.rectify_histogram() == {
            "0-1ms": 1,
            "1-2ms": 2,
            "2-10ms": 2,
            "10-99ms": 2,
            "100-999ms": 2,
            "1000+ms": 2,
        }
        total = 0.0
        for now in times:  # in rectify order, as the tracker adds them
            total += now
        assert rectified(tracker.stats) == (len(times), total)
        assert FlipFlopStats().rectify_histogram() == dict.fromkeys(
            ("0-1ms", "1-2ms", "2-10ms", "10-99ms", "100-999ms", "1000+ms"), 0
        )

    def test_stats_final_counts(self):
        tracker, _, _ = make_tracker()
        track(tracker, 1, {"x": ("v", "w")})
        tracker.reevaluate(1, "x", "v", 0.5)
        tracker.reevaluate(1, "x", "z", 0.7)
        tracker.advance_to(5.0)
        assert tracker.stats.n_finalized == 1
        assert tracker.stats.n_final_violations == 1
        assert tracker.stats.flips_per_pair == {2: 1}
        assert tracker.stats.n_flipped_txns == 1

    def test_wide_transaction_reevaluates_at_first_and_last_key(self):
        tracker, violations, _ = make_tracker()
        keys = [f"k{index:03d}" for index in range(200)]
        track(tracker, 1, {key: (key, key) for key in keys})
        tracker.reevaluate(1, keys[0], "first", 1.0)
        tracker.reevaluate(1, keys[-1], "last", 2.0)
        tracker.reevaluate(1, keys[-1], keys[-1], 2.5)
        tracker.reevaluate(1, keys[-1], "last", 3.0)
        tracker.advance_to(5.0)
        assert violations == [(1, keys[0], "first", keys[0]), (1, keys[-1], "last", keys[-1])]
        assert tracker.stats.flips_per_pair == {1: 1, 3: 1}
        assert rectified(tracker.stats) == (1, 0.5)
        assert (tracker.stats.n_pairs, tracker.stats.n_finalized) == (200, 200)


class TestFinalizationOrder:
    """Reports come out in arming order, then read order — and the
    end-of-stream fast path agrees with the heap-driven loop."""

    @staticmethod
    def feed(tracker):
        # Three arrival "batches"; batch two is armed under one deadline.
        track(tracker, 5, {"b": (1, 2), "a": (1, 2)}, now=0.0)
        tracker.track_columns([9, 9, 3], ["a", "c", "a"], [10, 10, 11], [1, 1, 1], [1, 2, 2], 1.0, [2, 3])
        tracker.arm_timers((9, 3), 1.0)
        track(tracker, 4, {"z": (1, 1)}, now=2.0)
        track(tracker, 2, {"a": (1, 2)}, now=2.0)
        tracker.reevaluate(9, "a", 3, 2.5)

    EXPECTED = [(5, "b", 2, 1), (5, "a", 2, 1), (9, "a", 3, 1), (9, "c", 2, 1), (3, "a", 2, 1), (2, "a", 2, 1)]

    def test_heap_driven(self):
        tracker, violations, finalized = make_tracker()
        self.feed(tracker)
        tracker.advance_to(5.0)  # first deadline only
        assert violations == self.EXPECTED[:2]
        tracker.advance_to(100.0)
        assert violations == self.EXPECTED
        assert finalized == [([5], False), ([9, 3, 4, 2], True)]

    def test_finalize_all_agrees(self):
        tracker, violations, finalized = make_tracker()
        self.feed(tracker)
        done = tracker.flush()
        assert violations == self.EXPECTED
        assert [record[REC_TID] for record in done] == [5, 9, 3, 4, 2]
        assert finalized == [([5, 9, 3, 4, 2], True)]

    @pytest.mark.parametrize("how", ["advance", "flush"])
    def test_stats_agree(self, how):
        tracker, _, _ = make_tracker()
        self.feed(tracker)
        tracker.advance_to(100.0) if how == "advance" else tracker.flush()
        stats = tracker.stats
        assert (stats.n_pairs, stats.n_finalized, stats.n_final_violations) == (7, 7, 6)
        assert stats.flips_per_pair == {1: 1} and stats.n_flipped_txns == 1


class TestNothingKeptPerFinalizedTransaction:
    """A daemon runs for ever: the tracker may hold memory per *pending*
    verdict, never per transaction it has finalized."""

    BATCHES, PER_BATCH = 30, 100

    def run(self, tracker):
        """Thirty batches a second apart, each finalized by its own
        timer before the next but one arrives; every tenth transaction
        reads a wrong value, and each batch re-delivers (re-tracks,
        re-arms) one transaction of the batch before."""
        for batch in range(self.BATCHES):
            now = float(batch)
            tracker.advance_to(now)
            tids = list(range(batch * self.PER_BATCH, (batch + 1) * self.PER_BATCH))
            if batch:
                tids.append(tids[0] - 1)
            for tid in tids:
                expected_y = tid + 1 if tid % 10 == 0 else tid
                tracker.track_columns(
                    [tid, tid], ["x", "y"], [tid, tid], [tid, tid], [tid, expected_y], now, [2]
                )
            tracker.arm_timers(tids, now)
        tracker.advance_to(self.BATCHES + 10.0)

    def test_size_returns_to_empty(self):
        tracker, violations, finalized = make_tracker(timeout=1.5)
        empty = deep_sizeof(tracker)
        self.run(tracker)
        n = self.BATCHES * self.PER_BATCH
        # The slack is the peak pending set's dict and heap capacity
        # (two batches), not a function of how many were finalized: one
        # set entry per finalized tid would alone be > 100 kB here.
        assert deep_sizeof(tracker) - empty < 24_000
        # Same reports, once each, in arming order — the re-delivered
        # transaction replaced its record in place and is finalized once,
        # with the batch that first armed it.
        assert violations == [(tid, "y", tid + 1, tid) for tid in range(0, n, 10)]
        assert sorted(tid for tids, _ in finalized for tid in tids) == list(range(n))
        stats = tracker.stats
        assert (stats.n_pairs, stats.n_finalized, stats.n_final_violations) == (
            2 * (n + self.BATCHES - 1), 2 * n, n // 10,
        )
        assert stats.flips_per_pair == {} and stats.n_flipped_txns == 0
        assert finalized[-1][1] and len(tracker) == 0


class TestRecordLayout:
    """One exactly-sized record per transaction: a ⊤ read costs its
    observed value and one small-int state, and the value is the
    version's own object where the two are interchangeable."""

    @staticmethod
    def record_of(tracker, tid):
        (record,) = [r for r in tracker.flush() if r[REC_TID] == tid]
        return record

    def test_record_is_three_plus_three_slots_per_read_at_exact_capacity(self):
        for width in (1, 3, 8):
            tracker, _, _ = make_tracker()
            keys = [f"k{i}" for i in range(width)]
            track(tracker, 1, {key: (i * 1000, i * 1000) for i, key in enumerate(keys)})
            record = self.record_of(tracker, 1)
            assert len(record) == 3 + 3 * width
            assert sys.getsizeof(record) == sys.getsizeof([None] * (3 + 3 * width))
            assert record[2 : 2 + width] == record_keys(record) == keys
            assert record[REC_FLIPPED] is False

    def test_equal_int_and_str_reads_share_the_versions_object(self):
        tracker, _, _ = make_tracker()
        version_int, version_str = 10**12 + 7, "".join(["val", "ue"])
        observed_int, observed_str = int(str(version_int)), "".join(["va", "lue"])
        assert observed_int is not version_int and observed_str is not version_str
        track(tracker, 1, {"x": (observed_int, version_int), "y": (observed_str, version_str)})
        actual = observed(self.record_of(tracker, 1))
        assert actual[0] is version_int and actual[1] is version_str

    def test_rectified_int_and_str_reads_hold_the_writers_object(self):
        """A ⊥ read whose writer arrives later is rectified to ⊤ and from
        then on holds the writer's object, as a ⊤ read does on arrival."""
        tracker, violations, _ = make_tracker()
        version_int, version_str = 10**12 + 7, "".join(["val", "ue"])
        observed_int, observed_str = int(str(version_int)), "".join(["va", "lue"])
        track(tracker, 1, {"x": (observed_int, BOTTOM), "y": (observed_str, "other")})
        tracker.reevaluate(1, "x", version_int, 1.0)
        tracker.reevaluate(1, "y", version_str, 1.0)
        actual = observed(self.record_of(tracker, 1))
        assert actual[0] is version_int and actual[1] is version_str
        assert violations == [] and rectified(tracker.stats) == (2, 2.0)

    def test_true_read_rectified_by_one_keeps_its_own_object(self):
        tracker, violations, _ = make_tracker()
        track(tracker, 1, {"x": (True, BOTTOM)})
        tracker.reevaluate(1, "x", 1, 1.0)  # rectified: ``True == 1``
        assert observed(tracker._txns[1])[0] is True
        tracker.reevaluate(1, "x", 5, 2.0)  # ⊥ again
        tracker.flush()
        assert violations == [(1, "x", 5, True)] and violations[0][3] is True

    def test_frames_decoded_with_one_memo_share_the_frontiers_values(self):
        """The daemon's path: each submit frame decoded with the
        connection's key memo.  The reader's frame comes before its
        writer's, so its reads are ⊥ until the writer's frame rectifies
        them; a later reader is ⊤ on arrival.  Every pending read then
        holds the object the frontier holds, not its frame's copy."""
        big, text = 10**12 + 7, "value-" * 4
        checker = Aion(AionConfig(timeout=5.0), clock=lambda: 0.0)
        memo = {}
        for txn in (
            Transaction(2, 2, 0, [read("x", big), read("y", text)], 20, 21),
            Transaction(1, 1, 0, [write("x", big), write("y", text)], 10, 11),
            Transaction(3, 3, 0, [read("x", big), read("y", text)], 30, 31),
        ):
            frame = encode_submit_frame([txn])
            batch = decode_frame_payload(K_SUBMIT, frame[HEADER_SIZE:], memo)["batch"]
            checker.receive_many(batch)
        frontier = checker._frontier
        for tid in (2, 3):
            record = checker._ext._txns[tid]
            assert observed(record) == [big, text]
            for key, value in zip(record_keys(record), observed(record)):
                assert value is frontier.latest_at(key, 20)[1]
        assert checker._ext.stats.n_rectified == 2 and not checker.poll()

    def test_true_read_against_one_keeps_its_own_object(self):
        """``True == 1`` is a ⊤ verdict, but a later ⊥ report names what
        the client read, not the version."""
        tracker, violations, _ = make_tracker()
        track(tracker, 1, {"x": (True, 1), "y": (2.0, 2), "z": ((1,), (True,))})
        for key in ("x", "y", "z"):
            tracker.reevaluate(1, key, 5, 1.0)
        tracker.flush()
        assert [(key, repr(actual)) for _, key, _, actual in violations] == [
            ("x", "True"), ("y", "2.0"), ("z", "(1,)"),
        ]

    def test_bottom_pair_reports_its_latest_expected(self):
        tracker, violations, _ = make_tracker()
        observed = int(str(10**12))
        track(tracker, 1, {"x": (observed, 10**12)})  # ⊤, shared
        tracker.reevaluate(1, "x", 10**12 + 1, 1.0)  # ⊥
        tracker.reevaluate(1, "x", 10**12 + 2, 2.0)  # still ⊥, a later value
        record = self.record_of(tracker, 1)
        assert violations == [(1, "x", 10**12 + 2, 10**12)]
        assert record[REC_FLIPPED] is True and tracker.stats.flips_per_pair == {1: 1}


class TestBoundedStats:
    """The statistics are aggregates: a daemon's flip-flops and
    rectifications never add to what it holds."""

    KEYS = ("a", "b", "c", "d")

    def cycles(self, tracker, first, last):
        """One transaction per cycle: four ⊤ reads that flip to ⊥ and
        are rectified 5 ms later, then time out."""
        for tid in range(first, last):
            now = float(tid)
            tracker.advance_to(now)
            track(tracker, tid, {key: (tid, tid) for key in self.KEYS}, now=now)
            for key in self.KEYS:
                tracker.reevaluate(tid, key, -1, now)
                tracker.reevaluate(tid, key, tid, now + 0.005)
        tracker.advance_to(last + 10.0)

    def test_size_after_ten_thousand_cycles_equals_size_after_a_hundred(self):
        tracker, violations, _ = make_tracker(timeout=1.0)
        self.cycles(tracker, 0, 100)
        after_hundred = deep_sizeof(tracker.stats)
        self.cycles(tracker, 100, 10_000)
        assert deep_sizeof(tracker.stats) == after_hundred
        stats = tracker.stats
        assert violations == [] and len(tracker) == 0
        assert stats.n_flipped_txns == 10_000 and stats.n_rectified == 40_000
        assert stats.flips_per_pair == {2: 40_000}
        assert stats.rectify_histogram()["2-10ms"] == 40_000
