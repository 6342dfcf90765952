"""Tests for Aion-SER, the online serializability checker."""

import pytest

from repro.core.aion_ser import AionSer
from repro.core.aion import Aion, AionConfig
from repro.core.chronos_ser import ChronosSer
from repro.core.colpack import pack_columnar, unpack_columnar
from repro.core.reference import normalize_violations
from repro.core.sharded import ShardedAion
from repro.core.violations import Axiom
from repro.db.faults import HistoryFaultInjector
from repro.histories.builder import HistoryBuilder
from repro.histories.ops import append, read, write
from repro.online.clock import SimClock
from repro.workloads.generator import generate_default_history
from repro.workloads.spec import WorkloadSpec

from test_ext_status import collect_flipped_tids


def make_ser(timeout=float("inf"), clock=None):
    return AionSer(AionConfig(timeout=timeout), clock=clock or (lambda: 0.0))


def feed(checker, txns):
    for txn in txns:
        checker.receive(txn)
    return checker.finalize()


class TestCommitOrderSemantics:
    def test_serial_history_valid(self):
        b = HistoryBuilder(keys=["x"])
        b.txn(sid=1, start=1, commit=2, ops=[write("x", 1)])
        b.txn(sid=2, start=3, commit=4, ops=[read("x", 1), write("x", 2)])
        history = b.build()
        assert feed(make_ser(), history.transactions).is_valid

    def test_reader_sees_strict_predecessor(self):
        # A reader committing at ts c must see the version just below c,
        # never its own or later versions.
        b = HistoryBuilder(keys=["x"])
        b.txn(sid=1, start=1, commit=2, ops=[write("x", 1)])
        b.txn(sid=2, start=3, commit=4, ops=[read("x", 1), write("x", 2)])
        b.txn(sid=3, start=5, commit=6, ops=[read("x", 2)])
        history = b.build()
        assert feed(make_ser(), history.transactions).is_valid

    def test_stale_read_flagged(self):
        b = HistoryBuilder(keys=["x"])
        b.txn(sid=1, tid=1, start=1, commit=4, ops=[write("x", 1)])
        b.txn(sid=2, tid=2, start=2, commit=5, ops=[read("x", 0)])
        history = b.build()
        result = feed(make_ser(), history.transactions)
        ext = result.by_axiom(Axiom.EXT)
        assert len(ext) == 1 and ext[0].tid == 2


class TestOutOfOrder:
    def test_late_serial_predecessor_rechecks_readers(self):
        b = HistoryBuilder(keys=["x"])
        w1 = b.txn(sid=1, start=1, commit=2, ops=[write("x", 1)])
        r = b.txn(sid=2, start=3, commit=4, ops=[read("x", 1)])
        history = b.build()
        checker = make_ser()
        flipped = collect_flipped_tids(checker)
        result = feed(checker, [history.init_transaction, r, w1])
        assert result.is_valid
        assert checker.flipflop_stats.n_flipped_txns == 1 and flipped == {r.tid}

    def test_late_writer_invalidates_reader(self):
        b = HistoryBuilder(keys=["x"])
        w1 = b.txn(sid=1, start=1, commit=2, ops=[write("x", 1)])
        r = b.txn(sid=2, start=3, commit=4, ops=[read("x", 0)])  # misses w1
        history = b.build()
        result = feed(make_ser(), [history.init_transaction, r, w1])
        assert result.by_axiom(Axiom.EXT)

    def test_writer_reading_key_it_overwrites(self):
        # The upper-inclusive re-check boundary: a txn that reads x and
        # writes x sees the version strictly before its own commit.
        b = HistoryBuilder(keys=["x"])
        w1 = b.txn(sid=1, start=1, commit=2, ops=[write("x", 1)])
        rw = b.txn(sid=2, start=3, commit=4, ops=[read("x", 1), write("x", 2)])
        history = b.build()
        result = feed(make_ser(), [history.init_transaction, rw, w1])
        assert result.is_valid


class TestSessionsAndTimeouts:
    def test_session_commit_order(self):
        b = HistoryBuilder(keys=["x"])
        b.txn(sid=1, sno=0, start=5, commit=6, ops=[write("x", 1)])
        b.txn(sid=1, sno=1, start=1, commit=2, ops=[write("y", 1)])
        history = b.build()
        result = feed(make_ser(), history.transactions)
        assert result.by_axiom(Axiom.SESSION)

    def test_timeout_finalizes(self):
        clock = SimClock()
        checker = make_ser(timeout=1.0, clock=clock)
        b = HistoryBuilder(keys=["x"])
        bad = b.txn(sid=1, start=1, commit=1, ops=[read("x", 99)])
        history = b.build()
        checker.receive(history.init_transaction)
        checker.receive(bad)
        clock.advance(1.5)
        assert [v.axiom for v in checker.poll()] == [Axiom.EXT]

    def test_matches_chronos_ser_on_si_history(self, si_history):
        checker = make_ser()
        result = feed(checker, si_history.by_commit_ts())
        offline = ChronosSer().check(si_history)
        assert normalize_violations(result) == normalize_violations(offline)
        assert not result.is_valid  # SI history is not serializable here


class TestWhatSerDoesNotInheritFromSi:
    def test_ablation_is_refused(self):
        """``optimized_recheck=False`` is an SI ablation (its re-check
        resolves expected values with the non-strict floor): AionSer
        refuses it instead of ignoring the flag or mis-checking."""
        with pytest.raises(ValueError, match="SI ablation"):
            AionSer(AionConfig(optimized_recheck=False))
        AionSer(AionConfig(optimized_recheck=True)).close()

    def test_no_writer_intervals(self):
        """No NOCONFLICT, no writer index — not even an empty one — and
        the size / scan / GC answers say so."""
        b = HistoryBuilder(keys=["x"])
        b.txn(sid=1, ops=[write("x", 1)])
        b.txn(sid=2, ops=[read("x", 1), write("x", 2)])
        history = b.build()
        ser, si = make_ser(), Aion(AionConfig(timeout=float("inf")), clock=lambda: 0.0)
        for checker in (ser, si):
            checker.receive_many(history.transactions)
        assert not hasattr(ser, "_writers")
        assert 0 < ser.estimated_bytes() < si.estimated_bytes()
        report = ser.collect_below(None)
        assert report.evicted_intervals == 0 and report.evicted_versions == 2
        assert si.collect_below(None).evicted_intervals == 2
        ser.close()
        si.close()

    def test_eq1_offender_with_append_is_refused_untouched(self):
        checker = make_ser()
        b = HistoryBuilder(with_init=False)
        txn = b.txn(sid=1, start=9, commit=3, ops=[append("l", 1)])
        with pytest.raises(ValueError, match="Chronos-SER"):
            checker.receive(txn)
        assert checker.finalize().violations == []
        assert checker.processed == 0 and checker.kernel_stats.batches == 0


class TestProcessedCountsAcceptedOnly:
    """``processed`` means *accepted*: an Eq. 1 (TS_ORDER) offender is
    reported but not counted — by Aion (which rejects it), AionSer (which
    still checks it at its commit point) and ShardedAion alike, through
    every ingestion path."""

    @staticmethod
    def faulted_stream():
        history = generate_default_history(
            WorkloadSpec(n_sessions=4, n_transactions=120, ops_per_txn=5, n_keys=20, seed=12)
        )
        injector = HistoryFaultInjector(history, seed=13)
        label = injector.inject_ts_order()
        assert label is not None
        return injector.build().by_commit_ts()

    def test_aion_and_aion_ser_agree(self):
        stream = self.faulted_stream()
        accepted = len(stream) - 1
        config = AionConfig(timeout=float("inf"))
        makers = [
            lambda: Aion(config, clock=lambda: 0.0),
            lambda: AionSer(config, clock=lambda: 0.0),
            lambda: ShardedAion(config, n_shards=2, clock=lambda: 0.0),
        ]
        feeds = [
            lambda checker: [checker.receive(txn) for txn in stream],
            lambda checker: [checker.receive_many(stream[i : i + 25]) for i in range(0, len(stream), 25)],
            lambda checker: checker.receive_many(unpack_columnar(pack_columnar(stream))[0]),
        ]
        for make in makers:
            for ingest in feeds:
                checker = make()
                try:
                    ingest(checker)
                    result = checker.finalize()
                    assert len(result.by_axiom(Axiom.TS_ORDER)) == 1
                    assert checker.processed == accepted, type(checker).__name__
                finally:
                    checker.close()
