"""Tests for Aion, the online SI checker (Algorithm 3)."""

import pytest

from repro.core.aion import Aion, AionConfig
from repro.core.chronos import Chronos
from repro.core.reference import normalize_violations
from repro.core.sharded import ShardedAion
from repro.core.violations import Axiom
from repro.histories.builder import HistoryBuilder
from repro.histories.model import History, Transaction
from repro.histories.ops import append, read, write
from repro.online.clock import SimClock

from test_ext_status import collect_flipped_tids


def make_aion(timeout=float("inf"), clock=None):
    return Aion(AionConfig(timeout=timeout), clock=clock or (lambda: 0.0))


def feed(aion, txns):
    for txn in txns:
        aion.receive(txn)
    return aion.finalize()


class TestInOrderEquivalence:
    def test_fig2_in_order(self, paper_fig2_history):
        aion = make_aion()
        result = feed(aion, paper_fig2_history.transactions)
        chronos = Chronos().check(paper_fig2_history)
        assert normalize_violations(result) == normalize_violations(chronos)

    def test_engine_history_in_commit_order(self, si_history):
        aion = make_aion()
        result = feed(aion, si_history.by_commit_ts())
        assert result.is_valid
        assert aion.processed == len(si_history)


class TestOutOfOrderRechecking:
    def test_example5_late_t5(self, paper_fig2_history):
        """The paper's Example 5: T5 arrives last and triggers both
        re-checks — NOCONFLICT with T3 and EXT re-justification of T4."""
        txns = {t.tid: t for t in paper_fig2_history.transactions}
        order = [txns[0], txns[1], txns[2], txns[3], txns[4], txns[5]]
        aion = make_aion()
        flipped = collect_flipped_tids(aion)
        result = feed(aion, order)
        conflicts = result.by_axiom(Axiom.NOCONFLICT)
        assert len(conflicts) == 1
        assert conflicts[0].tid == 5 and conflicts[0].conflicting_tids == frozenset({3})
        # T4's read of y=1 was a transient false alarm, cleared by T5.
        assert not result.by_axiom(Axiom.EXT)
        stats = aion.flipflop_stats
        assert stats.n_flipped_txns == 1 and flipped == {4}
        assert stats.flips_per_pair == {1: 1}

    def test_late_writer_fixes_pending_read(self):
        b = HistoryBuilder(keys=["x"])
        writer = b.txn(sid=1, start=1, commit=2, ops=[write("x", 1)])
        reader = b.txn(sid=2, start=3, commit=3, ops=[read("x", 1)])
        history = b.build()
        aion = make_aion()
        result = feed(aion, [history.init_transaction, reader, writer])
        assert result.is_valid

    def test_late_writer_breaks_satisfied_read(self):
        # Reader initially matches the init value; a late intermediate
        # writer makes the read stale.
        b = HistoryBuilder(keys=["x"])
        writer = b.txn(sid=1, start=1, commit=2, ops=[write("x", 1)])
        reader = b.txn(sid=2, start=3, commit=3, ops=[read("x", 0)])
        history = b.build()
        aion = make_aion()
        result = feed(aion, [history.init_transaction, reader, writer])
        ext = result.by_axiom(Axiom.EXT)
        assert len(ext) == 1
        assert ext[0].tid == reader.tid and ext[0].expected == 1

    def test_late_conflicting_writer(self):
        b = HistoryBuilder(keys=["x"])
        t1 = b.txn(sid=1, tid=1, start=1, commit=4, ops=[write("x", 1)])
        t2 = b.txn(sid=2, tid=2, start=2, commit=5, ops=[write("x", 2)])
        history = b.build()
        aion = make_aion()
        result = feed(aion, [history.init_transaction, t2, t1])
        conflicts = result.by_axiom(Axiom.NOCONFLICT)
        assert len(conflicts) == 1
        assert conflicts[0].tid == 1  # attributed to the earlier commit

    def test_rechecking_stops_at_overwrite(self):
        """A late writer only re-justifies reads before the next version
        of the key (the paper's third optimization)."""
        b = HistoryBuilder(keys=["x"])
        late = b.txn(sid=1, tid=1, start=1, commit=2, ops=[write("x", 1)])
        over = b.txn(sid=2, tid=2, start=3, commit=4, ops=[write("x", 2)])
        reader = b.txn(sid=3, tid=3, start=5, commit=5, ops=[read("x", 2)])
        history = b.build()
        aion = make_aion()
        # The reader of x=2 is evaluated against `over`; when `late`
        # arrives its snapshot must NOT be re-pointed at the older write.
        result = feed(aion, [history.init_transaction, over, reader, late])
        assert result.is_valid
        assert aion.flipflop_stats.n_flipped_txns == 0


class TestTimeouts:
    def test_violation_reported_after_timeout(self):
        clock = SimClock()
        aion = Aion(AionConfig(timeout=5.0), clock=clock)
        b = HistoryBuilder(keys=["x"])
        reader = b.txn(sid=1, start=1, commit=1, ops=[read("x", 42)])
        history = b.build()
        aion.receive(history.init_transaction)
        aion.receive(reader)
        assert aion.poll() == []  # tentative, not reported
        clock.advance(5.1)
        fresh = aion.poll()
        assert [v.axiom for v in fresh] == [Axiom.EXT]

    def test_timeout_expired_verdict_is_final(self):
        clock = SimClock()
        aion = Aion(AionConfig(timeout=1.0), clock=clock)
        b = HistoryBuilder(keys=["x"])
        writer = b.txn(sid=1, start=1, commit=2, ops=[write("x", 1)])
        reader = b.txn(sid=2, start=3, commit=3, ops=[read("x", 1)])
        history = b.build()
        aion.receive(history.init_transaction)
        aion.receive(reader)
        clock.advance(2.0)  # reader's timeout expires before writer shows
        aion.receive(writer)
        result = aion.finalize()
        # A (false) EXT violation was finalized; the late writer cannot
        # retract it (Algorithm 3, lines 40-41).
        assert len(result.by_axiom(Axiom.EXT)) == 1

    def test_int_reported_immediately(self):
        aion = make_aion()
        b = HistoryBuilder(keys=["x"])
        bad = b.txn(sid=1, ops=[write("x", 1), read("x", 2)])
        history = b.build()
        aion.receive(history.init_transaction)
        aion.receive(bad)
        assert [v.axiom for v in aion.poll()] == [Axiom.INT]


class TestInputHandling:
    def test_eq1_violation_reported_and_skipped(self):
        aion = make_aion()
        b = HistoryBuilder(keys=["x"])
        bad = b.txn(sid=1, start=9, commit=3, ops=[write("x", 1)])
        history = b.build()
        aion.receive(history.init_transaction)
        aion.receive(bad)
        result = aion.finalize()
        assert [v.axiom for v in result.violations] == [Axiom.TS_ORDER]
        assert aion.resident_txn_count == 1  # only ⊥T retained

    def test_append_rejected(self):
        aion = make_aion()
        b = HistoryBuilder(with_init=False)
        txn = b.txn(sid=1, ops=[append("l", 1)])
        with pytest.raises(ValueError, match="offline"):
            aion.receive(txn)

    def test_eq1_offender_with_append_is_refused_untouched(self):
        """``receive`` is a batch of one, and a batch is validated whole
        before any state changes: an Eq. 1 offender that also carries an
        append raises, it is not reported as TS_ORDER and skipped."""
        aion = make_aion()
        b = HistoryBuilder(with_init=False)
        txn = b.txn(sid=1, start=9, commit=3, ops=[append("l", 1)])
        with pytest.raises(ValueError, match="offline"):
            aion.receive(txn)
        assert aion.finalize().violations == []
        assert aion.processed == 0 and aion.kernel_stats.batches == 0

    def test_session_violation_online(self):
        aion = make_aion()
        b = HistoryBuilder(keys=["x"])
        b.txn(sid=1, sno=0, ops=[write("x", 1)])
        skipped = b.txn(sid=1, sno=3, ops=[write("x", 2)])
        history = b.build()
        feed(aion, history.transactions)
        assert aion.result.by_axiom(Axiom.SESSION)
        assert aion.result.by_axiom(Axiom.SESSION)[0].tid == skipped.tid

    def test_poll_drains_once(self):
        aion = make_aion()
        b = HistoryBuilder(keys=["x"])
        bad = b.txn(sid=1, ops=[write("x", 1), read("x", 2)])
        history = b.build()
        aion.receive(history.init_transaction)
        aion.receive(bad)
        assert len(aion.poll()) == 1
        assert aion.poll() == []
        assert len(aion.result.violations) == 1


class TestSharedSnapshotReaders:
    """Regression: distinct readers sharing a snapshot point must each keep
    their own pending EXT re-check (the single-entry ``ExtReadIndex``
    silently clobbered / evicted co-snapshot readers).  Concurrent readers
    handed the same database snapshot legitimately share ``start_ts``, so
    the transactions are built directly rather than through the builder's
    unique-timestamp convenience checks.
    """

    @staticmethod
    def _shared_snapshot_txns(value_a, value_b):
        writer = Transaction(1, 1, 0, [write("x", 1)], start_ts=1, commit_ts=5)
        reader_a = Transaction(2, 2, 0, [read("x", value_a)], start_ts=10, commit_ts=11)
        reader_b = Transaction(3, 3, 0, [read("x", value_b)], start_ts=10, commit_ts=12)
        late = Transaction(4, 4, 0, [write("x", 2)], start_ts=6, commit_ts=7)
        return writer, reader_a, reader_b, late

    def test_both_shared_snapshot_readers_rechecked(self):
        """Two readers at one start_ts; a late writer flips one to a
        violation and rights the other.  With one index slot per snapshot
        the first reader was never re-evaluated and stayed a false
        positive."""
        writer, reader_a, reader_b, late = self._shared_snapshot_txns(2, 1)
        aion = make_aion()
        result = feed(aion, [writer, reader_a, reader_b, late])
        ext = result.by_axiom(Axiom.EXT)
        # The late write of x=2 at commit 7 makes reader_a's read correct
        # and reader_b's stale: exactly reader_b is a violation.
        assert [v.tid for v in ext] == [reader_b.tid]
        aion.close()

    def test_finalizing_one_reader_spares_the_other(self):
        """One reader's timeout must not evict a co-snapshot reader from
        the index; the survivor still flips to a violation when a late
        writer arrives before its own deadline."""
        clock = SimClock()
        aion = make_aion(timeout=5.0, clock=clock)
        writer, reader_a, reader_b, late = self._shared_snapshot_txns(1, 1)
        aion.receive(writer)
        aion.receive(reader_a)      # deadline at t=5
        clock.advance(1.0)
        aion.receive(reader_b)      # deadline at t=6
        clock.advance(4.5)          # t=5.5: reader_a finalized OK on arrival
        aion.receive(late)          # must still re-check reader_b
        result = aion.finalize()
        ext = result.by_axiom(Axiom.EXT)
        assert [v.tid for v in ext] == [reader_b.tid]
        aion.close()


class TestConflictReportOrder:
    """Regression: a write overlapping two writers reports its NOCONFLICT
    pairs in the writers' commit order, on a fresh key and on a key that
    already carries thousands of intervals.  Past 4,096 intervals a key
    used to move to a chunked index that listed overlaps by start, so
    the report order changed with the key's size."""

    #: One past the old 4,096-interval switch, so ``a`` arrives after it.
    DEPTH = 4097

    @staticmethod
    def _overlapping():
        # ``a`` starts before ``b`` and commits after it; ``c`` overlaps both.
        a = Transaction(10_001, 1, 0, [write("x", "a")], start_ts=10_010, commit_ts=10_040)
        b = Transaction(10_002, 2, 0, [write("x", "b")], start_ts=10_020, commit_ts=10_030)
        c = Transaction(10_003, 3, 0, [write("x", "c")], start_ts=10_025, commit_ts=10_050)
        return [a, b, c]

    @classmethod
    def _earlier_writers(cls):
        """``DEPTH`` writers of ``x`` in one session, none overlapping
        another or ``a``, ``b``, ``c``."""
        return [
            Transaction(i, 100, i, [write("x", i)], start_ts=2 * i, commit_ts=2 * i + 1)
            for i in range(cls.DEPTH)
        ]

    @pytest.mark.parametrize("batched", [True, False], ids=["one_batch", "per_arrival"])
    @pytest.mark.parametrize("sharded", [False, True], ids=["aion", "sharded_x2"])
    def test_order_does_not_depend_on_the_key_size(self, sharded, batched):
        def conflicts(txns):
            config = AionConfig(timeout=float("inf"))
            if sharded:
                checker = ShardedAion(config, n_shards=2, clock=lambda: 0.0, executor="serial")
            else:
                checker = Aion(config, clock=lambda: 0.0)
            try:
                if batched:
                    checker.receive_many(txns)
                else:
                    for txn in txns:
                        checker.receive(txn)
                result = checker.finalize()
            finally:
                checker.close()
            assert len(result.violations) == len(result.by_axiom(Axiom.NOCONFLICT))
            return [(v.tid, sorted(v.conflicting_tids)) for v in result.by_axiom(Axiom.NOCONFLICT)]

        fresh = conflicts(self._overlapping())
        deep = conflicts(self._earlier_writers() + self._overlapping())
        assert fresh == deep
        # b meets a; then c meets b (commit 10,030) before a (10,040).
        assert fresh == [(10_002, [10_001]), (10_002, [10_003]), (10_001, [10_003])]


class TestTangledKey:
    """The disjointness shortcut must not answer for a key whose writers
    overlapped: X=[20,25], then Y=[1,30] (a conflict, which tangles the
    key), then W=[5,10] — whose first interval ending after its start is
    X's, starting at 20 > 10 — still conflicts with Y."""

    @staticmethod
    def _writers():
        return [
            Transaction(1, 1, 0, [write("x", "X")], start_ts=20, commit_ts=25),
            Transaction(2, 2, 0, [write("x", "Y")], start_ts=1, commit_ts=30),
            Transaction(3, 3, 0, [write("x", "W")], start_ts=5, commit_ts=10),
        ]

    @pytest.mark.parametrize("sharded", [False, True], ids=["aion", "sharded_x2"])
    def test_overlap_behind_a_later_start_is_reported(self, sharded):
        config = AionConfig(timeout=float("inf"))
        if sharded:
            checker = ShardedAion(config, n_shards=2, clock=lambda: 0.0)
        else:
            checker = Aion(config, clock=lambda: 0.0)
        try:
            checker.receive_many(self._writers())
            result = checker.finalize()
        finally:
            checker.close()
        got = [(v.tid, sorted(v.conflicting_tids)) for v in result.by_axiom(Axiom.NOCONFLICT)]
        assert got == [(1, [2]), (3, [2])]
        assert normalize_violations(result) == normalize_violations(
            Chronos().check(History(self._writers()))
        )
