"""Tests for Chronos, the offline SI checker (Algorithm 2)."""

import pytest

from repro.core.chronos import Chronos, GcMode
from repro.core.violations import Axiom
from repro.histories.builder import HistoryBuilder
from repro.histories.ops import append, read, read_list, write


def check(history):
    return Chronos().check(history)


class TestPaperExamples:
    def test_fig1_valid(self, paper_fig1_history):
        assert check(paper_fig1_history).is_valid

    def test_fig2_noconflict(self, paper_fig2_history):
        result = check(paper_fig2_history)
        assert [v.axiom for v in result.violations] == [Axiom.NOCONFLICT]
        violation = result.violations[0]
        # Reported once, at the commit of the earlier-committing txn (T5).
        assert violation.tid == 5
        assert violation.conflicting_tids == frozenset({3})
        assert violation.key == "y"

    def test_fig11_ext(self, paper_fig11_history):
        result = check(paper_fig11_history)
        assert [v.axiom for v in result.violations] == [Axiom.EXT]
        assert result.violations[0].tid == 3
        assert result.violations[0].expected == 2
        assert result.violations[0].actual == 1


class TestExtAxiom:
    def test_reads_last_committed_before_start(self):
        b = HistoryBuilder(keys=["x"])
        b.txn(sid=1, start=1, commit=2, ops=[write("x", 1)])
        b.txn(sid=2, start=3, commit=4, ops=[write("x", 2)])
        b.txn(sid=3, start=5, commit=5, ops=[read("x", 2)])
        assert check(b.build()).is_valid

    def test_writer_not_visible_while_uncommitted(self):
        b = HistoryBuilder(keys=["x"])
        b.txn(sid=1, start=1, commit=4, ops=[write("x", 1)])
        b.txn(sid=2, start=2, commit=3, ops=[read("x", 0)])  # snapshot before commit
        assert check(b.build()).is_valid

    def test_reading_uncommitted_flagged(self):
        b = HistoryBuilder(keys=["x"])
        b.txn(sid=1, start=1, commit=4, ops=[write("x", 1)])
        b.txn(sid=2, start=2, commit=3, ops=[read("x", 1)])  # dirty read
        result = check(b.build())
        assert result.by_axiom(Axiom.EXT)

    def test_unborn_key_reads_none(self):
        b = HistoryBuilder(keys=["x"])  # y never initialized
        b.txn(sid=1, start=1, commit=1, ops=[read("y", None)])
        assert check(b.build()).is_valid

    def test_unborn_key_wrong_value(self):
        b = HistoryBuilder(keys=["x"])
        b.txn(sid=1, start=1, commit=1, ops=[read("y", 7)])
        assert check(b.build()).by_axiom(Axiom.EXT)

    def test_repeated_external_reads_both_checked(self):
        b = HistoryBuilder(keys=["x"])
        b.txn(sid=1, start=1, commit=2, ops=[write("x", 1)])
        b.txn(sid=2, start=3, commit=3, ops=[read("x", 1), read("x", 1)])
        assert check(b.build()).is_valid


class TestIntAxiom:
    def test_read_own_write(self):
        b = HistoryBuilder(keys=["x"])
        b.txn(sid=1, ops=[write("x", 5), read("x", 5)])
        assert check(b.build()).is_valid

    def test_read_own_write_mismatch(self):
        b = HistoryBuilder(keys=["x"])
        b.txn(sid=1, ops=[write("x", 5), read("x", 6)])
        result = check(b.build())
        assert [v.axiom for v in result.violations] == [Axiom.INT]
        assert result.violations[0].expected == 5
        assert result.violations[0].actual == 6

    def test_repeated_read_consistency(self):
        b = HistoryBuilder(keys=["x"])
        b.txn(sid=1, start=1, commit=2, ops=[write("x", 1)])
        b.txn(sid=2, start=3, commit=3, ops=[read("x", 1), read("x", 2)])
        result = check(b.build())
        # Second read disagrees with the first: INT, not EXT.
        assert [v.axiom for v in result.violations] == [Axiom.INT]

    def test_write_read_write_read(self):
        b = HistoryBuilder(keys=["x"])
        b.txn(sid=1, ops=[write("x", 1), read("x", 1), write("x", 2), read("x", 2)])
        assert check(b.build()).is_valid


class TestSessionAxiom:
    def test_gapped_sno(self):
        b = HistoryBuilder(keys=["x"])
        b.txn(sid=1, sno=0, ops=[write("x", 1)])
        b.txn(sid=1, sno=2, ops=[write("x", 2)])  # skips sno 1
        result = check(b.build())
        assert result.by_axiom(Axiom.SESSION)

    def test_successor_starts_before_predecessor_commits(self):
        b = HistoryBuilder(keys=["x"])
        b.txn(sid=1, sno=0, start=1, commit=5, ops=[write("x", 1)])
        b.txn(sid=1, sno=1, start=3, commit=7, ops=[write("y", 1)])
        result = check(b.build())
        assert result.by_axiom(Axiom.SESSION)

    def test_well_ordered_session(self):
        b = HistoryBuilder(keys=["x", "y"])
        b.txn(sid=1, start=1, commit=2, ops=[write("x", 1)])
        b.txn(sid=1, start=3, commit=4, ops=[write("y", 1)])
        assert check(b.build()).is_valid


class TestNoConflict:
    def test_sequential_writers_ok(self):
        b = HistoryBuilder(keys=["x"])
        b.txn(sid=1, start=1, commit=2, ops=[write("x", 1)])
        b.txn(sid=2, start=3, commit=4, ops=[write("x", 2)])
        assert check(b.build()).is_valid

    def test_concurrent_writers_reported_once(self):
        b = HistoryBuilder(keys=["x"])
        b.txn(sid=1, tid=1, start=1, commit=4, ops=[write("x", 1)])
        b.txn(sid=2, tid=2, start=2, commit=5, ops=[write("x", 2)])
        result = check(b.build())
        conflicts = result.by_axiom(Axiom.NOCONFLICT)
        assert len(conflicts) == 1
        assert conflicts[0].tid == 1  # earlier commit reports

    def test_three_way_conflict(self):
        b = HistoryBuilder(keys=["x"])
        b.txn(sid=1, tid=1, start=1, commit=10, ops=[write("x", 1)])
        b.txn(sid=2, tid=2, start=2, commit=11, ops=[write("x", 2)])
        b.txn(sid=3, tid=3, start=3, commit=12, ops=[write("x", 3)])
        result = check(b.build())
        conflicts = result.by_axiom(Axiom.NOCONFLICT)
        # Chronos reports at each commit except the last: {1:{2,3}}, {2:{3}}.
        assert len(conflicts) == 2
        by_tid = {c.tid: c.conflicting_tids for c in conflicts}
        assert by_tid[1] == frozenset({2, 3})
        assert by_tid[2] == frozenset({3})

    def test_concurrent_writers_different_keys_ok(self):
        b = HistoryBuilder(keys=["x", "y"])
        b.txn(sid=1, start=1, commit=4, ops=[write("x", 1)])
        b.txn(sid=2, start=2, commit=5, ops=[write("y", 2)])
        assert check(b.build()).is_valid

    def test_write_skew_is_si_legal(self):
        b = HistoryBuilder(keys=["x", "y"])
        b.txn(sid=1, start=1, commit=3, ops=[read("x", 0), write("y", 1)])
        b.txn(sid=2, start=2, commit=4, ops=[read("y", 0), write("x", 2)])
        assert check(b.build()).is_valid


class TestTimestampOrder:
    def test_start_after_commit_reported(self):
        b = HistoryBuilder(keys=["x"])
        b.txn(sid=1, start=5, commit=2, ops=[write("x", 1)])
        result = check(b.build())
        assert [v.axiom for v in result.violations] == [Axiom.TS_ORDER]

    def test_malformed_txn_does_not_poison_others(self):
        b = HistoryBuilder(keys=["x"])
        b.txn(sid=1, start=5, commit=2, ops=[write("x", 1)])
        b.txn(sid=2, start=7, commit=8, ops=[write("x", 2)])
        b.txn(sid=3, start=9, commit=9, ops=[read("x", 2)])
        result = check(b.build())
        assert {v.axiom for v in result.violations} == {Axiom.TS_ORDER}


class TestListHistories:
    def test_append_and_read(self):
        b = HistoryBuilder(with_init=False)
        b.txn(sid=1, start=1, commit=2, ops=[append("l", 1)])
        b.txn(sid=2, start=3, commit=4, ops=[append("l", 2)])
        b.txn(sid=3, start=5, commit=5, ops=[read_list("l", [1, 2])])
        assert check(b.build()).is_valid

    def test_wrong_order_read_flagged(self):
        b = HistoryBuilder(with_init=False)
        b.txn(sid=1, start=1, commit=2, ops=[append("l", 1)])
        b.txn(sid=2, start=3, commit=4, ops=[append("l", 2)])
        b.txn(sid=3, start=5, commit=5, ops=[read_list("l", [2, 1])])
        assert check(b.build()).by_axiom(Axiom.EXT)

    def test_append_reads_own_suffix(self):
        b = HistoryBuilder(with_init=False)
        b.txn(sid=1, start=1, commit=2, ops=[append("l", 1)])
        b.txn(sid=2, start=3, commit=4, ops=[append("l", 2), read_list("l", [1, 2])])
        assert check(b.build()).is_valid

    def test_concurrent_appends_conflict(self):
        b = HistoryBuilder(with_init=False)
        b.txn(sid=1, start=1, commit=3, ops=[append("l", 1)])
        b.txn(sid=2, start=2, commit=4, ops=[append("l", 2)])
        assert check(b.build()).by_axiom(Axiom.NOCONFLICT)

    def test_unborn_list_reads_empty(self):
        b = HistoryBuilder(with_init=False)
        b.txn(sid=1, start=1, commit=1, ops=[read_list("l", [])])
        assert check(b.build()).is_valid


class TestGcModes:
    @pytest.mark.parametrize("gc_every,mode", [
        (None, GcMode.NONE),
        (100, GcMode.LIGHT),
        (100, GcMode.FULL),
        (1, GcMode.LIGHT),
    ])
    def test_gc_does_not_change_verdicts(self, si_history, gc_every, mode):
        baseline = Chronos().check(si_history)
        checker = Chronos(gc_every=gc_every, gc_mode=mode)
        result = checker.check(si_history)
        assert result.is_valid == baseline.is_valid
        assert len(result.violations) == len(baseline.violations)

    def test_gc_runs_counted(self, si_history):
        checker = Chronos(gc_every=100, gc_mode=GcMode.LIGHT)
        checker.check(si_history)
        assert checker.report.gc_runs == len(si_history) // 100

    def test_invalid_gc_every(self):
        with pytest.raises(ValueError):
            Chronos(gc_every=0)

    def test_periodic_gc_releases_retained(self, si_history):
        checker = Chronos(gc_every=200, gc_mode=GcMode.LIGHT)
        checker.check_transactions(list(si_history.transactions))
        assert len(checker.retained) < 200
        assert checker.report.peak_retained <= 200

    def test_report_stage_times_populated(self, si_history):
        checker = Chronos()
        checker.check(si_history)
        report = checker.report
        assert report.n_transactions == len(si_history)
        assert report.sort_seconds >= 0
        assert report.check_seconds > 0
        assert report.total_seconds >= report.check_seconds


class TestReportAndAggregation:
    def test_all_violations_reported_not_just_first(self):
        b = HistoryBuilder(keys=["x", "y"])
        b.txn(sid=1, ops=[write("x", 1), read("x", 2)])       # INT
        b.txn(sid=2, start=10, commit=13, ops=[write("y", 1)])
        b.txn(sid=3, start=11, commit=14, ops=[write("y", 2)])  # NOCONFLICT
        b.txn(sid=4, start=20, commit=20, ops=[read("x", 99)])  # EXT
        result = check(b.build())
        axioms = {v.axiom for v in result.violations}
        assert axioms == {Axiom.INT, Axiom.NOCONFLICT, Axiom.EXT}

    def test_counts_and_summary(self):
        b = HistoryBuilder(keys=["x"])
        b.txn(sid=1, ops=[write("x", 1), read("x", 2)])
        result = check(b.build())
        assert result.counts() == {Axiom.INT: 1}
        assert "INT=1" in result.summary()
        assert not result.is_valid

    def test_valid_engine_history(self, si_history):
        assert check(si_history).is_valid
