"""The chaos campaign runner: fault-scheduled live checking.

The online analogue of the paper's §V-D fault experiments — a Jepsen-
style loop for the timestamp-based checkers.  One campaign drives a
live simulated :class:`~repro.db.engine.Database` workload, ships its
CDC feed through a WAL file tailed by
:class:`~repro.db.cdc.WalTailer`, and streams the transactions into a
real checker daemon over the v2 wire — while a seeded
:class:`~repro.chaos.schedule.CampaignSchedule` injects connection
kills, hard daemon restarts, slow-network pauses, clock-skew bursts,
and axiom-targeted mutations of the CDC batches with ground-truth labels.

The campaign then asserts, in its :class:`CampaignReport`:

- every injected fault label is flagged by its matching axiom;
- every skew-burst segment is flagged;
- no *clean* window produces a violation (zero false positives after
  attributing each violation to a label, a burst, or fault collateral);
- the daemon's final verdicts match an in-process reference checker run
  over the exact stream the daemon acked (the service layer neither
  lost, duplicated, nor invented anything);
- every scheduled daemon restart completed with client-transparent
  resume (the workload client never saw an error).

Restart semantics: a hard-killed daemon loses all state, so the runner
plays supervisor — it boots the successor on the same port and re-feeds
the acked prefix through a separate catch-up connection *before* the
workload client's auto-resume touches the new daemon.  The workload
client then reconnects, is handed a fresh session, and replays only its
unacked tail: between the two, the new daemon sees exactly the full
history once.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Any, Dict, IO, List, Optional, Set, Tuple

from repro.chaos.schedule import CampaignSchedule, mutation_classes
from repro.core.reference import normalize_violations
from repro.core.violations import (
    Axiom,
    CheckResult,
    ExtViolation,
    SessionViolation,
    Violation,
)
from repro.db.cdc import WalTailer, wal_line
from repro.db.engine import Database, IsolationLevel
from repro.db.faults import FaultInjector, FaultLabel, SkewedOracle
from repro.db.oracle import CentralizedOracle
from repro.histories.model import INIT_TID, Transaction
from repro.service.client import CheckerClient
from repro.service.config import ServiceConfig
from repro.service.daemon import ServiceThread
from repro.workloads.driver import InterleavedDriver, TxnProgram

__all__ = ["CampaignRunner", "CampaignReport", "LabelOutcome"]


@dataclass
class LabelOutcome:
    """One injected mutation label and whether its axiom flagged it."""

    axiom: str
    tids: Tuple[int, ...]
    key: str
    segment: int
    detected: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "axiom": self.axiom,
            "tids": list(self.tids),
            "key": self.key,
            "segment": self.segment,
            "detected": self.detected,
        }


@dataclass
class CampaignReport:
    """Everything a chaos run proved (or failed to prove)."""

    seed: int
    checker: str
    level: str
    segments: int
    txns_sent: int
    processed: int
    violations_total: int
    labels: List[LabelOutcome]
    skipped_mutations: List[str]
    bursts: List[Dict[str, Any]]
    attributions: Dict[str, int]
    false_positives: List[str]
    restarts_scheduled: int
    restarts_completed: int
    kills_scheduled: int
    kills_armed: int
    pauses_scheduled: int
    reconnects: int
    replayed_batches: int
    recovered_acks: int
    daemon_sessions: Dict[str, Any]
    reference_match: bool
    duration_s: float = 0.0

    @property
    def labels_detected(self) -> int:
        return sum(1 for label in self.labels if label.detected)

    @property
    def bursts_detected(self) -> int:
        return sum(1 for burst in self.bursts if burst["detected"])

    @property
    def ok(self) -> bool:
        """The campaign's gate: detection complete, zero false alarms,
        resume genuinely transparent."""
        return (
            self.labels_detected == len(self.labels)
            and self.bursts_detected == len(self.bursts)
            and not self.false_positives
            and self.reference_match
            and self.restarts_completed == self.restarts_scheduled
            and self.reconnects >= self.kills_armed + self.restarts_completed
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "seed": self.seed,
            "checker": self.checker,
            "level": self.level,
            "segments": self.segments,
            "txns_sent": self.txns_sent,
            "processed": self.processed,
            "violations_total": self.violations_total,
            "labels": [label.to_dict() for label in self.labels],
            "labels_detected": self.labels_detected,
            "skipped_mutations": list(self.skipped_mutations),
            "bursts": list(self.bursts),
            "attributions": dict(self.attributions),
            "false_positives": list(self.false_positives),
            "restarts": {
                "scheduled": self.restarts_scheduled,
                "completed": self.restarts_completed,
            },
            "kills": {"scheduled": self.kills_scheduled, "armed": self.kills_armed},
            "pauses_scheduled": self.pauses_scheduled,
            "resume": {
                "reconnects": self.reconnects,
                "replayed_batches": self.replayed_batches,
                "recovered_acks": self.recovered_acks,
            },
            "daemon_sessions": dict(self.daemon_sessions),
            "reference_match": self.reference_match,
            "duration_s": round(self.duration_s, 3),
        }

    def summary(self) -> str:
        lines = [
            f"chaos campaign: seed={self.seed} checker={self.checker} "
            f"segments={self.segments} ({self.duration_s:.1f}s)",
            f"  stream: {self.txns_sent} txns sent, {self.processed} processed, "
            f"{self.violations_total} violations",
            f"  mutations: {self.labels_detected}/{len(self.labels)} labels detected"
            + (
                f" ({len(self.skipped_mutations)} found no target)"
                if self.skipped_mutations
                else ""
            ),
            f"  skew bursts: {self.bursts_detected}/{len(self.bursts)} detected",
            f"  clean windows: {len(self.false_positives)} false positives",
            f"  faults ridden out: {self.restarts_completed}/{self.restarts_scheduled} "
            f"daemon restarts, {self.kills_armed} connection kills, "
            f"{self.pauses_scheduled} slow-network pauses",
            f"  resume: {self.reconnects} reconnects, "
            f"{self.replayed_batches} batches replayed, "
            f"{self.recovered_acks} lost acks recovered, "
            f"{self.daemon_sessions.get('deduped_txns', 0)} txns deduped by the daemon",
            f"  reference differential: "
            f"{'match' if self.reference_match else 'MISMATCH'}",
            f"  verdict: {'PASS' if self.ok else 'FAIL'}",
        ]
        return "\n".join(lines)


class _Collateral:
    """The violations a SESSION or TS_ORDER label causes outside its own
    transactions, so the campaign attributes those to it and nothing more.

    - A swapped (SESSION) or skipped (TS_ORDER at SI, where the checker
      drops the writer) sequence number leaves a gap that the session's
      next transaction, one past the highest labelled ``sno``, is
      flagged for.
    - A TS_ORDER writer's values sit in the wrong place on the checker's
      timeline: at SI it installs none of them, so a reader of one fails
      EXT; at SER they land at the old start, so a reader of the value
      one overwrote fails EXT expecting it.  Either way the EXT report
      names one of the writer's ``(key, value)`` writes.
    """

    def __init__(self, level: str) -> None:
        self.drops_swapped = level == "si"
        self.gaps: Set[Tuple[int, int]] = set()  # (sid, sno)
        self.swapped_writes: Set[Tuple[str, Any]] = set()  # (key, value)

    def record(self, label: FaultLabel, window: Dict[int, Transaction]) -> None:
        """Note what ``label`` leaves behind; ``window`` maps the tids of
        the mutated window to its transactions."""
        if label.axiom is Axiom.TS_ORDER:
            self.swapped_writes.update(window[label.tids[0]].last_writes.items())
        if label.axiom is Axiom.SESSION or (
            label.axiom is Axiom.TS_ORDER and self.drops_swapped
        ):
            last = max((window[tid] for tid in label.tids), key=lambda txn: txn.sno)
            self.gaps.add((last.sid, last.sno + 1))

    def covers(self, violation: Violation) -> bool:
        """Whether a recorded label explains ``violation``."""
        if isinstance(violation, SessionViolation):
            return (violation.sid, violation.actual_sno) in self.gaps
        if isinstance(violation, ExtViolation):
            return any(
                (violation.key, value) in self.swapped_writes
                for value in (violation.actual, violation.expected)
            )
        return False


class CampaignRunner:
    """Execute one :class:`CampaignSchedule` against a live stack.

    Everything randomized derives from the schedule's seed — workload
    programs, interleavings, skew draws, mutation targets, kill frame
    offsets — so a campaign re-runs reproducibly from the seed alone.
    """

    def __init__(
        self,
        schedule: CampaignSchedule,
        *,
        level: str = "si",
        n_shards: int = 1,
        n_sessions: int = 4,
        n_keys: int = 12,
        txns_per_segment: int = 40,
        batch_size: int = 8,
        pause_ms: float = 25.0,
        wal_path: Optional[Path] = None,
    ) -> None:
        self.schedule = schedule
        self.level = level
        self.n_shards = n_shards
        self.n_sessions = n_sessions
        self.n_keys = n_keys
        self.txns_per_segment = txns_per_segment
        self.batch_size = batch_size
        self.pause_ms = pause_ms
        self.wal_path = wal_path
        # Refuse a bad daemon configuration or an undetectable mutation
        # before any daemon boots.
        self._service_config(0).validate()
        classes = mutation_classes(level)
        for event in schedule.events:
            if event.kind == "mutate" and event.arg not in classes:
                raise ValueError(f"a {level} campaign cannot detect a {event.arg} mutation")

    # ------------------------------------------------------------------

    def _service_config(self, port: int) -> ServiceConfig:
        # timeout=inf keeps verdicts independent of wall-clock: nothing
        # EXT-finalizes early during a pause or restart, so the same
        # seed yields the same verdicts on a loaded CI box.
        return ServiceConfig(
            port=port,
            level=self.level,
            n_shards=self.n_shards,
            timeout=float("inf"),
        )

    def _factory(self, sid: int, rng: Any) -> TxnProgram:
        program = TxnProgram()
        for _ in range(rng.randint(2, 4)):
            key = f"k{rng.randrange(self.n_keys)}"
            if rng.random() < 0.5:
                program.read(key)
            else:
                program.write(key, rng.randrange(1_000_000))
        return program

    def _restart_daemon(
        self, handle: ServiceThread, port: int, sent: List[Transaction]
    ) -> ServiceThread:
        """Hard-kill the daemon, boot a successor on the same port, and
        re-feed the acked prefix before the workload client returns."""
        handle.kill()
        successor = ServiceThread(self._service_config(port)).start()
        catchup = CheckerClient("127.0.0.1", port)
        catchup.connect(retry_for=10.0)
        for start in range(0, len(sent), 500):
            catchup.submit_many(sent[start : start + 500])
        catchup.drain()
        catchup.close()
        return successor

    def _reference_result(self, sent: List[Transaction]) -> CheckResult:
        checker = self._service_config(port=0).build_checker(clock=lambda: 0.0)
        checker.receive_many(sent)
        return checker.finalize()

    # ------------------------------------------------------------------

    def run(self) -> CampaignReport:
        started = time.monotonic()
        schedule = self.schedule
        scheduled = schedule.counts()

        oracle = SkewedOracle(
            CentralizedOracle(),
            probability=0.0,
            stride=16,
            rng=Random(schedule.seed ^ 0x5EED),
        )
        database = Database(oracle, isolation=IsolationLevel(self.level))
        if self.wal_path is not None:
            wal_path = Path(self.wal_path)
            wal_file: IO[str] = wal_path.open("a", encoding="utf-8")
            wal_is_temp = False
        else:
            tmp = tempfile.NamedTemporaryFile(
                "a", suffix=".wal", prefix="repro-chaos-", delete=False, encoding="utf-8"
            )
            wal_path, wal_file = Path(tmp.name), tmp
            wal_is_temp = True

        def ship(txn: Transaction) -> None:
            wal_file.write(wal_line(txn) + "\n")
            wal_file.flush()

        database.cdc.subscribe(ship)
        database.initialize(f"k{i}" for i in range(self.n_keys))
        tailer = WalTailer(wal_path)
        driver = InterleavedDriver(database, self.n_sessions, seed=schedule.seed ^ 0xD81)
        injector = FaultInjector(seed=schedule.seed ^ 0x1AB)

        handle = ServiceThread(self._service_config(port=0)).start()
        host, port = handle.tcp_address
        client = CheckerClient(host, port, auto_resume=True, reconnect_timeout=15.0)
        client.connect()

        sent: List[Transaction] = []
        labels: List[LabelOutcome] = []
        skipped: List[str] = []
        bursts: List[Dict[str, Any]] = []
        burst_members: List[Tuple[Set[int], Set[int]]] = []  # (tids, sids) per burst
        burst_tids: Set[int] = set()
        burst_sids: Set[int] = set()
        burst_keys: Set[str] = set()
        label_tids: Set[int] = set()
        label_keys: Set[str] = set()
        collateral = _Collateral(self.level)
        kills_armed = 0
        restarts_completed = 0

        try:
            for segment in range(schedule.segments):
                events = schedule.events_for(segment)
                kinds = [event.kind for event in events]

                if "restart" in kinds:
                    handle = self._restart_daemon(handle, port, sent)
                    restarts_completed += 1

                burst = "skew_burst" in kinds
                oracle.probability = 1.0 if burst else 0.0
                driver.run(self._factory, self.txns_per_segment)
                batch = tailer.poll()

                seg_tids: Set[int] = set()
                seg_sids: Set[int] = set()
                for txn in batch:
                    if burst and txn.tid != INIT_TID:
                        seg_tids.add(txn.tid)
                        seg_sids.add(txn.sid)
                        burst_keys.update(txn.write_keys)
                if burst:
                    burst_tids |= seg_tids
                    burst_sids |= seg_sids
                    burst_members.append((seg_tids, seg_sids))
                    bursts.append(
                        {"segment": segment, "txns": len(seg_tids), "detected": False}
                    )

                touched: Set[int] = set()
                for event in events:
                    if event.kind != "mutate":
                        continue
                    # One fault per transaction: a second one (a TS_ORDER
                    # swap, say) can hide the first from the checker.
                    window = [txn for txn in batch if txn.tid not in touched]
                    label = injector.inject(event.arg, window)
                    if label is None:
                        skipped.append(event.arg)
                        continue
                    mutated = {txn.tid: txn for txn in window}
                    batch = [mutated.get(txn.tid, txn) for txn in batch]
                    touched.update(label.tids)
                    labels.append(
                        LabelOutcome(
                            axiom=label.axiom.value,
                            tids=label.tids,
                            key=label.key,
                            segment=segment,
                        )
                    )
                    label_tids.update(label.tids)
                    if label.key:
                        label_keys.add(label.key)
                    collateral.record(label, mutated)
                injector.observe(batch)

                chunks = [
                    batch[start : start + self.batch_size]
                    for start in range(0, len(batch), self.batch_size)
                ]
                # Distinct offsets per segment: two kills collapsing on
                # one frame would sever the connection once but be
                # counted twice, and the resume gate would then demand a
                # reconnect that never needed to happen.  Same reason
                # offset 0 is off-limits in a restart segment — the
                # first frame after a restart finds a dead socket
                # already, so a kill there coalesces with the restart's
                # own reconnect.
                armed_offsets: Set[int] = set()
                if "restart" in kinds and chunks:
                    armed_offsets.add(0)
                for event in events:
                    if event.kind == "kill" and chunks:
                        offset = int(event.arg or 0) % len(chunks)
                        while offset in armed_offsets and len(armed_offsets) < len(chunks):
                            offset = (offset + 1) % len(chunks)
                        if offset in armed_offsets:
                            continue  # more kills than frames this segment
                        armed_offsets.add(offset)
                        client.chaos_kill_frames.add(client.frames_sent + 1 + offset)
                        kills_armed += 1
                pause = "pause" in kinds
                for chunk in chunks:
                    client.submit_many(chunk)
                    sent.extend(chunk)
                    if pause:
                        time.sleep(self.pause_ms / 1000.0)

            result = client.finalize()
            stats = client.stats(include_bytes=False)
        finally:
            client.close()
            handle.stop()
            wal_file.close()
            if wal_is_temp:
                try:
                    wal_path.unlink()
                except OSError:
                    pass

        # ------------------------------------------------------------------
        # Attribution: every violation must trace back to an injected
        # fault (mutation label, skew burst, or their collateral: a
        # label's or burst's keys, and what ``_Collateral`` recorded);
        # anything left is a false positive.
        # ------------------------------------------------------------------

        def violation_tids(violation: Any) -> Set[int]:
            tids = {violation.tid}
            tids.update(getattr(violation, "conflicting_tids", ()) or ())
            return tids

        attributions = {"mutation": 0, "skew": 0, "collateral": 0, "false_positive": 0}
        false_positives: List[str] = []
        for violation in result.violations:
            tids = violation_tids(violation)
            sid = getattr(violation, "sid", None)
            key = getattr(violation, "key", "")
            if tids & label_tids:
                attributions["mutation"] += 1
            elif tids & burst_tids or (sid is not None and sid in burst_sids):
                attributions["skew"] += 1
                for burst_row, (member_tids, member_sids) in zip(bursts, burst_members):
                    if tids & member_tids or (sid is not None and sid in member_sids):
                        burst_row["detected"] = True
            elif key and (key in label_keys or key in burst_keys) or collateral.covers(violation):
                attributions["collateral"] += 1
            else:
                attributions["false_positive"] += 1
                false_positives.append(str(violation))

        for label in labels:
            label.detected = any(
                violation.axiom.value == label.axiom
                and violation_tids(violation) & set(label.tids)
                for violation in result.violations
            )

        reference = self._reference_result(sent)
        reference_match = normalize_violations(reference) == normalize_violations(result)

        return CampaignReport(
            seed=schedule.seed,
            checker=self._service_config(port=0).checker_kind,
            level=self.level,
            segments=schedule.segments,
            txns_sent=len(sent),
            processed=stats["processed"],
            violations_total=len(result.violations),
            labels=labels,
            skipped_mutations=skipped,
            bursts=bursts,
            attributions=attributions,
            false_positives=false_positives,
            restarts_scheduled=scheduled.get("restart", 0),
            restarts_completed=restarts_completed,
            kills_scheduled=scheduled.get("kill", 0),
            kills_armed=kills_armed,
            pauses_scheduled=scheduled.get("pause", 0),
            reconnects=client.reconnects,
            replayed_batches=client.replayed_batches,
            recovered_acks=client.recovered_acks,
            daemon_sessions=stats.get("sessions", {}),
            reference_match=reference_match,
            duration_s=time.monotonic() - started,
        )
