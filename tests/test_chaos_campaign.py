"""Chaos harness units plus a small end-to-end campaign smoke.

Covers the pieces the campaign runner stands on — the WAL tailer
(torn-line handling, offset resume), the fault injector on live
windows, the writable skew probability, connect backoff with attempt
counting, and schedule generation/serialization — then runs small
seeded campaigns end to end and asserts their report gate.
"""

from __future__ import annotations

import json
import socket
import time
from dataclasses import replace

import pytest

from repro.chaos import CampaignRunner, CampaignSchedule, FaultEvent
from repro.chaos.campaign import _Collateral
from repro.core.violations import Axiom, ConflictViolation, ExtViolation, SessionViolation
from repro.db.cdc import WalTailer
from repro.db.faults import FaultInjector, SkewedOracle
from repro.db.oracle import CentralizedOracle
from repro.histories.model import Operation, OpKind, Transaction
from repro.histories.serialization import txn_to_dict
from repro.service import CheckerClient, ServiceError


# ----------------------------------------------------------------------
# WalTailer
# ----------------------------------------------------------------------

def commit_line(tid: int) -> str:
    txn = Transaction(
        tid=tid,
        sid=0,
        sno=tid,
        ops=(Operation(OpKind.WRITE, "x", tid),),
        start_ts=2 * tid + 1,
        commit_ts=2 * tid + 2,
    )
    return "COMMIT " + json.dumps(txn_to_dict(txn), separators=(",", ":"))


class TestWalTailer:
    def test_missing_file_reads_as_empty(self, tmp_path):
        tailer = WalTailer(tmp_path / "absent.wal")
        assert tailer.poll() == []
        assert tailer.offset == 0

    def test_incremental_polls_see_each_append_once(self, tmp_path):
        path = tmp_path / "live.wal"
        tailer = WalTailer(path)
        with path.open("a") as handle:
            handle.write(commit_line(1) + "\n")
        assert [txn.tid for txn in tailer.poll()] == [1]
        with path.open("a") as handle:
            handle.write(commit_line(2) + "\n" + commit_line(3) + "\n")
        assert [txn.tid for txn in tailer.poll()] == [2, 3]
        assert tailer.poll() == []

    def test_torn_tail_is_left_for_the_next_poll(self, tmp_path):
        path = tmp_path / "torn.wal"
        line = commit_line(7) + "\n"
        with path.open("a") as handle:
            handle.write(commit_line(5) + "\n")
            handle.write(line[: len(line) // 2])  # writer mid-append
        tailer = WalTailer(path)
        assert [txn.tid for txn in tailer.poll()] == [5]
        offset_after_first = tailer.offset
        assert tailer.poll() == []  # torn tail: not consumed, not yielded
        assert tailer.offset == offset_after_first
        with path.open("a") as handle:
            handle.write(line[len(line) // 2 :])
        assert [txn.tid for txn in tailer.poll()] == [7]

    def test_offset_round_trips_across_tailers(self, tmp_path):
        path = tmp_path / "resume.wal"
        with path.open("a") as handle:
            handle.write(commit_line(1) + "\n" + commit_line(2) + "\n")
        first = WalTailer(path)
        assert len(first.poll()) == 2
        with path.open("a") as handle:
            handle.write(commit_line(3) + "\n")
        resumed = WalTailer(path, offset=first.offset)
        assert [txn.tid for txn in resumed.poll()] == [3]

    def test_non_commit_lines_are_skipped(self, tmp_path):
        path = tmp_path / "mixed.wal"
        with path.open("a") as handle:
            handle.write("CHECKPOINT 12\n")
            handle.write(commit_line(4) + "\n")
            handle.write("\n")
        assert [txn.tid for txn in WalTailer(path).poll()] == [4]


# ----------------------------------------------------------------------
# Stream-level fault injection
# ----------------------------------------------------------------------

def make_batch(n: int = 8, base_tid: int = 1):
    txns = []
    for index in range(n):
        tid = base_tid + index
        txns.append(
            Transaction(
                tid=tid,
                sid=index % 2,
                sno=index // 2 + 1,
                ops=(
                    Operation(OpKind.READ, "a", None),
                    Operation(OpKind.WRITE, f"k{index % 3}", tid),
                ),
                start_ts=10 * tid,
                commit_ts=10 * tid + 5,
            )
        )
    return txns


class TestLiveWindowInjection:
    @pytest.mark.parametrize("kind", FaultInjector.CLASSES)
    def test_each_class_mutates_and_labels(self, kind):
        injector = FaultInjector(seed=3)
        batch = make_batch(8)
        pristine = [txn_to_dict(txn) for txn in batch]
        label = injector.inject(kind, batch)
        assert label is not None, f"{kind} found no target in a writable batch"
        assert label.axiom.value == kind.upper()
        assert label.tids
        assert [txn_to_dict(txn) for txn in batch] != pristine
        assert injector.labels[-1] is label

    def test_noconflict_pairs_with_in_window_predecessor(self):
        """Nothing observed: the earlier writer is the key's latest writer
        committed before the later one inside the same window."""
        injector = FaultInjector(seed=3)
        batch = make_batch(8)
        by_tid = {txn.tid: txn for txn in batch}
        label = injector.inject("noconflict", batch)
        assert label is not None and label.axiom.value == "NOCONFLICT"
        earlier, later = label.tids
        writers = [t for t in by_tid.values() if label.key in t.write_keys]
        before = [t for t in writers if t.commit_ts < by_tid[later].commit_ts]
        assert earlier == max(before, key=lambda t: t.commit_ts).tid
        (mutated,) = [t for t in batch if t.tid == later]
        assert mutated.start_ts == by_tid[earlier].commit_ts - 1

    def test_noconflict_pairs_with_latest_observed_writer(self):
        injector = FaultInjector(seed=3)
        first = make_batch(8, base_tid=1)
        injector.observe(first)
        # One writer per key in the later window: its only pairs are the
        # observed writers, the latest of each key.
        batch = make_batch(3, base_tid=100)
        label = injector.inject("noconflict", batch)
        assert label is not None
        earlier, later = label.tids
        latest = {}
        for txn in first:
            for key in txn.write_keys:
                latest[key] = txn
        assert earlier == latest[label.key].tid
        (mutated,) = [t for t in batch if t.tid == later]
        assert mutated.start_ts == latest[label.key].commit_ts - 1

    def test_noconflict_skips_writers_committed_before_an_observed_one(self):
        injector = FaultInjector(seed=3)
        injector.observe(make_batch(3, base_tid=100))
        batch = make_batch(3, base_tid=1)
        pristine = [txn_to_dict(txn) for txn in batch]
        assert injector.inject("noconflict", batch) is None
        assert [txn_to_dict(txn) for txn in batch] == pristine

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector().inject("gibberish", make_batch())

    def test_empty_batch_skips_cleanly(self):
        assert FaultInjector().inject("ext", []) is None


class TestCollateral:
    """A SESSION or TS_ORDER label excuses only the violations it causes
    outside its own transactions, not its session's or keys' later ones."""

    def test_session_swap_excuses_the_next_sequence_number_only(self):
        batch = make_batch(8)
        label = FaultInjector(seed=3).inject("session", batch)
        window = {txn.tid: txn for txn in batch}
        collateral = _Collateral("si")
        collateral.record(label, window)
        (sid,) = {window[tid].sid for tid in label.tids}
        top = max(window[tid].sno for tid in label.tids)
        gap = SessionViolation(Axiom.SESSION, tid=999, sid=sid, actual_sno=top + 1)
        assert collateral.covers(gap)
        assert not collateral.covers(replace(gap, actual_sno=top + 2))
        assert not collateral.covers(replace(gap, sid=sid + 1))
        assert not collateral.covers(ExtViolation(Axiom.EXT, tid=999, key="k0"))

    @pytest.mark.parametrize("level", ["si", "ser"])
    def test_ts_order_excuses_ext_reports_naming_the_swapped_writes(self, level):
        batch = make_batch(8)
        label = FaultInjector(seed=3).inject("ts_order", batch)
        window = {txn.tid: txn for txn in batch}
        writer = window[label.tids[0]]
        ((key, value),) = writer.last_writes.items()
        collateral = _Collateral(level)
        collateral.record(label, window)
        # SI: a reader of the uninstalled write; SER: a reader of the
        # value it overwrote, checked against the write moved earlier.
        read_it = ExtViolation(Axiom.EXT, tid=999, key=key, expected=-1, actual=value)
        read_before = replace(read_it, expected=value, actual=-1)
        assert collateral.covers(read_it) and collateral.covers(read_before)
        assert not collateral.covers(replace(read_it, actual=value + 1000))
        assert not collateral.covers(replace(read_it, key=key + "x"))
        assert not collateral.covers(ConflictViolation(Axiom.NOCONFLICT, tid=999, key=key))
        # Only the SI checker drops the writer and so skips its sequence number.
        gap = SessionViolation(Axiom.SESSION, tid=999, sid=writer.sid, actual_sno=writer.sno + 1)
        assert collateral.covers(gap) is (level == "si")
        assert not collateral.covers(replace(gap, actual_sno=writer.sno + 2))


class TestSkewedOracleProbability:
    def test_probability_is_writable_between_windows(self):
        oracle = SkewedOracle(CentralizedOracle(), probability=0.0)
        for _ in range(50):
            oracle.next_ts()
        assert oracle.n_skewed == 0
        oracle.probability = 1.0
        for _ in range(50):
            oracle.next_ts()
        assert oracle.n_skewed > 0

    def test_probability_validates_range(self):
        oracle = SkewedOracle(CentralizedOracle())
        with pytest.raises(ValueError):
            oracle.probability = 1.5
        with pytest.raises(ValueError):
            oracle.probability = -0.1


# ----------------------------------------------------------------------
# Connect backoff
# ----------------------------------------------------------------------

def dead_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestConnectBackoff:
    def test_single_attempt_raises_the_original_error(self):
        client = CheckerClient("127.0.0.1", dead_port())
        with pytest.raises(ConnectionRefusedError):
            client.connect()

    def test_exhausted_retries_raise_service_error_with_attempts(self):
        client = CheckerClient("127.0.0.1", dead_port())
        started = time.monotonic()
        with pytest.raises(ServiceError) as excinfo:
            client.connect(retry_for=0.3)
        elapsed = time.monotonic() - started
        assert excinfo.value.attempts >= 2
        assert str(excinfo.value.attempts) in str(excinfo.value)
        # Capped backoff honours the deadline, with one jittered sleep
        # of grace at most.
        assert elapsed < 2.0

    def test_auto_resume_requires_v2(self):
        with pytest.raises(ValueError, match="protocol must be 2"):
            CheckerClient("127.0.0.1", 1, protocol=1, auto_resume=True)


# ----------------------------------------------------------------------
# Schedules
# ----------------------------------------------------------------------

class TestCampaignSchedule:
    def test_generate_is_deterministic(self):
        first = CampaignSchedule.generate(99)
        second = CampaignSchedule.generate(99)
        assert first.to_dict() == second.to_dict()
        assert first.to_dict() != CampaignSchedule.generate(100).to_dict()

    def test_round_trips_through_json(self):
        schedule = CampaignSchedule.generate(7, segments=6)
        wire = json.loads(json.dumps(schedule.to_dict()))
        assert CampaignSchedule.from_dict(wire).to_dict() == schedule.to_dict()

    def test_generate_respects_counts(self):
        schedule = CampaignSchedule.generate(
            3, segments=10, kills=4, restarts=2, pauses=1, skew_bursts=2, mutations=5
        )
        counts = schedule.counts()
        assert counts == {
            "kill": 4, "restart": 2, "pause": 1, "skew_burst": 2, "mutate": 5
        }
        restart_segments = [
            event.segment for event in schedule.events if event.kind == "restart"
        ]
        assert 0 not in restart_segments
        assert len(set(restart_segments)) == len(restart_segments)

    def test_events_for_applies_in_kind_order(self):
        schedule = CampaignSchedule(
            segments=2,
            events=[
                FaultEvent(1, "kill", 0),
                FaultEvent(1, "restart"),
                FaultEvent(1, "mutate", "ext"),
            ],
        )
        assert [event.kind for event in schedule.events_for(1)] == [
            "restart", "mutate", "kill"
        ]

    def test_ser_schedule_leaves_out_noconflict_and_keeps_the_draws(self):
        """A SER schedule cycles every class but ``noconflict``, which
        SER does not check; the SI schedule is what it always was, and
        the two differ only in the mutations' classes."""
        si = CampaignSchedule.generate(7, segments=6, mutations=5)
        ser = CampaignSchedule.generate(7, segments=6, mutations=5, level="ser")

        def classes(schedule):
            return sorted(e.arg for e in schedule.events if e.kind == "mutate")

        assert classes(si) == sorted(FaultInjector.CLASSES)
        assert classes(ser) == ["ext", "ext", "int", "session", "ts_order"]
        assert [(e.segment, e.kind) for e in si.events] == [
            (e.segment, e.kind) for e in ser.events
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(0, "meteor-strike")
        with pytest.raises(ValueError):
            FaultEvent(1, "mutate", "not-a-class")
        with pytest.raises(ValueError):
            CampaignSchedule(segments=2, events=[FaultEvent(5, "kill")])
        with pytest.raises(ValueError):
            CampaignSchedule.generate(0, segments=3, restarts=3)
        with pytest.raises(ValueError, match="noconflict"):
            CampaignRunner(
                CampaignSchedule(segments=2, events=[FaultEvent(1, "mutate", "noconflict")]),
                level="ser",
            )


# ----------------------------------------------------------------------
# End-to-end smoke
# ----------------------------------------------------------------------

class TestCampaignSmoke:
    def test_small_campaign_passes_its_gate(self):
        schedule = CampaignSchedule.generate(
            7, segments=6, kills=2, restarts=1, pauses=1, skew_bursts=1, mutations=3
        )
        report = CampaignRunner(
            schedule, txns_per_segment=30, pause_ms=2.0
        ).run()
        assert report.ok, report.summary()
        assert report.restarts_completed == 1
        assert report.kills_armed == 2
        assert report.reconnects >= 3
        assert report.labels_detected == len(report.labels) == 3
        assert report.bursts_detected == len(report.bursts) == 1
        assert report.false_positives == []
        assert report.reference_match
        # The report serializes (the CLI's --json/--report path).
        wire = json.loads(json.dumps(report.to_dict(), sort_keys=True))
        assert wire["ok"] is True
        assert "PASS" in report.summary()

    def test_every_fault_class_through_the_daemon(self):
        """Five mutations cycle every class of ``FaultInjector.CLASSES``:
        each is labelled, each label is flagged by its own axiom, and no
        violation is left unattributed."""
        schedule = CampaignSchedule.generate(
            7, segments=6, kills=2, restarts=1, pauses=1, skew_bursts=1, mutations=5
        )
        report = CampaignRunner(schedule, txns_per_segment=30, pause_ms=2.0).run()
        assert report.ok, report.summary()
        assert report.skipped_mutations == []
        assert sorted(label.axiom for label in report.labels) == sorted(
            kind.upper() for kind in FaultInjector.CLASSES
        )
        assert all(label.detected for label in report.labels)
        assert report.false_positives == []

    def test_ser_campaign_detects_every_label(self):
        """``repro chaos --level ser --seed 7 --segments 6 --mutations 5``:
        five mutations at SER, all detected, verdict PASS."""
        schedule = CampaignSchedule.generate(7, segments=6, mutations=5, level="ser")
        report = CampaignRunner(schedule, level="ser").run()
        assert report.ok, report.summary()
        assert report.labels_detected == len(report.labels) == 5
        assert report.false_positives == []
        assert report.reference_match

    @pytest.mark.parametrize("seed", [0, 1])
    def test_every_fault_class_in_one_clean_window(self, seed):
        """No skew burst to absorb collateral: each transaction takes at
        most one fault, and what a SESSION or TS_ORDER fault leaves
        behind (the session's next transaction flagged for a sequence
        gap, EXT reports on the swapped writer's own writes) is
        attributed to it, not counted as a false positive."""
        events = [FaultEvent(1, "mutate", kind) for kind in FaultInjector.CLASSES]
        report = CampaignRunner(
            CampaignSchedule(segments=3, events=events, seed=seed), txns_per_segment=30
        ).run()
        tids = [tid for label in report.labels for tid in label.tids]
        assert len(report.labels) == 5 and len(tids) == len(set(tids))
        assert report.ok, report.summary()
