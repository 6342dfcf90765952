"""Service subsystem tests: the wire codec, daemon behaviour, and the
wire-vs-in-process differential.

The acceptance claim is the last class: for every anomaly fixture (and
for generated/fault-injected workloads), verdicts obtained through the
daemon — multiple concurrent client connections, arbitrary interleaving
between sessions — are identical to feeding the same history directly
into ``Aion`` / ``ShardedAion``.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import re
import select
import socket
import struct
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import pytest

from repro.core.aion import Aion, AionConfig
from repro.core.aion_ser import AionSer
from repro.core.colpack import pack_columnar
from repro.core.common import BOTTOM
from repro.core.reference import normalize_violations
from repro.core.sharded import ShardedAion
from repro.core.violations import (
    Axiom,
    CheckResult,
    ConflictViolation,
    ExtViolation,
    IntViolation,
    SessionViolation,
    TimestampOrderViolation,
    Violation,
)
from repro.db.faults import FaultInjector
from repro.histories.anomalies import ANOMALY_CATALOG
from repro.histories.serialization import txn_from_dict, txn_to_dict
from repro.histories.model import Operation, OpKind, Transaction
from repro.service import (
    CheckerClient,
    ServiceConfig,
    ServiceError,
    ServiceThread,
    replay_transactions,
    transactions_in_commit_order,
)
from repro.service.client import http_get_text
from repro.service.framing import (
    FRAME_MAGIC0,
    FRAME_MAGIC1,
    FRAME_VERSION,
    HEADER_SIZE,
    K_HELLO,
    K_PING,
    K_SUBMIT,
    K_VIOLATION,
    K_WELCOME,
    decode_frame_header,
    decode_frame_payload,
    encode_hello_frame,
    encode_json_frame,
    encode_submit_frame,
)
from repro.service.ingest import _IngestQueue
from repro.service.protocol import (
    ProtocolError,
    decode_line,
    encode_message,
    result_from_dict,
    result_to_dict,
    value_from_wire,
    value_to_wire,
    violation_from_dict,
    violation_to_dict,
)
from repro.workloads.generator import generate_default_history
from repro.workloads.spec import WorkloadSpec

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------

@pytest.fixture
def start_service():
    """Start daemons on background threads; stop them all on teardown."""
    handles = []

    def _start(**kwargs) -> ServiceThread:
        kwargs.setdefault("port", 0)
        kwargs.setdefault("timeout", float("inf"))
        handle = ServiceThread(ServiceConfig(**kwargs)).start()
        handles.append(handle)
        return handle

    yield _start
    for handle in handles:
        handle.stop()


def connect(handle: ServiceThread, **kwargs) -> CheckerClient:
    host, port = handle.tcp_address
    client = CheckerClient(host, port, **kwargs)
    client.connect()
    return client


def anomaly_txns(name: str):
    return transactions_in_commit_order(ANOMALY_CATALOG[name].build())


# Two one-write transactions on one key; packed columnar they lay out as
# header (12 bytes), key table (u16 length + "x"), five i64 meta columns
# (80), three u32 op offsets, two op kinds, two u32 key ids, two value
# tags and two i64 values.  The offsets below index that blob.
POISON_PAIR = [
    Transaction(99, 9, 1, (Operation(OpKind.WRITE, "x", 1),), 1, 2),
    Transaction(100, 9, 2, (Operation(OpKind.WRITE, "x", 2),), 3, 4),
]
_KEY_TABLE = 12
_OFFSETS = _KEY_TABLE + 3 + 80
_KINDS = _OFFSETS + 12
_KEY_IDS = _KINDS + 2
_TAGS = _KEY_IDS + 8


def patch(blob: bytes, at: int, data: bytes) -> bytes:
    return blob[:at] + data + blob[at + len(data) :]


# ----------------------------------------------------------------------
# Protocol codecs
# ----------------------------------------------------------------------

class TestProtocol:
    @pytest.mark.parametrize(
        "violation",
        [
            Violation(axiom=Axiom.SESSION, tid=3),
            SessionViolation(
                axiom=Axiom.SESSION, tid=4, sid=2, expected_sno=1, actual_sno=3,
                start_ts=10, last_commit_ts=12,
            ),
            IntViolation(axiom=Axiom.INT, tid=5, key="x", expected=1, actual=2),
            ExtViolation(axiom=Axiom.EXT, tid=6, key="ключ", expected=BOTTOM, actual=7),
            ExtViolation(axiom=Axiom.EXT, tid=7, key="l", expected=(1, 2), actual=(1,)),
            ConflictViolation(
                axiom=Axiom.NOCONFLICT, tid=8, key="y", conflicting_tids=frozenset({9, 11})
            ),
            TimestampOrderViolation(axiom=Axiom.TS_ORDER, tid=9, start_ts=5, commit_ts=3),
        ],
    )
    def test_violation_round_trip(self, violation):
        wire = violation_to_dict(violation)
        decoded = violation_from_dict(wire)
        assert decoded == violation
        assert decoded.describe() == violation.describe()

    def test_violation_survives_json_framing(self):
        violation = ExtViolation(axiom=Axiom.EXT, tid=6, key="⊥-key", expected=BOTTOM, actual=(1, "а"))
        frame = encode_json_frame(
            K_VIOLATION, {"type": "violation", "violation": violation_to_dict(violation)}
        )
        kind, length = decode_frame_header(frame[:HEADER_SIZE])
        message = decode_frame_payload(kind, frame[HEADER_SIZE : HEADER_SIZE + length])
        assert violation_from_dict(message["violation"]) == violation

    def test_value_tags(self):
        for value in (None, 0, "s", BOTTOM, (1, 2), ((1,), BOTTOM), ()):
            assert value_from_wire(value_to_wire(value)) == value
        assert value_from_wire(value_to_wire(BOTTOM)) is BOTTOM
        # Plain JSON-object values round-trip too — including one whose
        # own keys would look like a codec tag.
        for value in ({}, {"a": 1}, {"$": "bottom"}, ({"x": [1]},)):
            assert value_from_wire(value_to_wire(value)) == value
        with pytest.raises(ProtocolError):
            value_from_wire({"$": "mystery"})

    def test_result_round_trip(self):
        result = CheckResult()
        result.add(IntViolation(axiom=Axiom.INT, tid=1, key="x", expected=1, actual=2))
        result.add(ExtViolation(axiom=Axiom.EXT, tid=2, key="y", expected=BOTTOM, actual=0))
        data = result_to_dict(result)
        assert data["valid"] is False and data["counts"] == {"INT": 1, "EXT": 1}
        decoded = result_from_dict(data)
        assert decoded.violations == result.violations
        assert result_to_dict(CheckResult())["valid"] is True

    def test_violation_record_layout(self):
        """``axiom``, ``tid``, ``kind``, then the class's own fields in
        declaration order — the JSON a subscriber sees, byte for byte."""
        records = [
            violation_to_dict(Violation(axiom=Axiom.SESSION, tid=3)),
            violation_to_dict(SessionViolation(axiom=Axiom.SESSION, tid=4, sid=2)),
            violation_to_dict(ExtViolation(axiom=Axiom.EXT, tid=6, key="k", expected=BOTTOM)),
            violation_to_dict(
                ConflictViolation(axiom=Axiom.NOCONFLICT, tid=8, key="y",
                                  conflicting_tids=frozenset({11, 9}))
            ),
            violation_to_dict(TimestampOrderViolation(axiom=Axiom.TS_ORDER, tid=9, start_ts=5)),
        ]
        assert [json.dumps(record) for record in records] == [
            '{"axiom": "SESSION", "tid": 3, "kind": "violation"}',
            '{"axiom": "SESSION", "tid": 4, "kind": "session", "sid": 2, "expected_sno": -1, '
            '"actual_sno": -1, "start_ts": -1, "last_commit_ts": -1}',
            '{"axiom": "EXT", "tid": 6, "kind": "ext", "key": "k", "expected": {"$": "bottom"}, '
            '"actual": null}',
            '{"axiom": "NOCONFLICT", "tid": 8, "kind": "conflict", "key": "y", '
            '"conflicting_tids": [9, 11]}',
            '{"axiom": "TS_ORDER", "tid": 9, "kind": "ts_order", "start_ts": 5, "commit_ts": -1}',
        ]

    def test_decode_line_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            decode_line(b"not json\n")
        with pytest.raises(ProtocolError):
            decode_line(b"[1,2]\n")
        with pytest.raises(ProtocolError):
            decode_line(b'{"no_type": 1}\n')

    def test_ndjson_helpers_round_trip_a_submit(self):
        # The benchmark ladder's ndjson rung: rows → one line → rows.
        txns = anomaly_txns("lost-update")
        line = encode_message({"type": "submit", "txns": [txn_to_dict(t) for t in txns]})
        assert line.endswith(b"\n") and line.count(b"\n") == 1
        message = decode_line(line)
        assert message["type"] == "submit"
        assert [txn_from_dict(row) for row in message["txns"]] == txns

    def test_decoders_reject_garbage(self):
        for payload in (b"not json", b"[1,2]", b'{"no_type": 1}', b'{"type": "pong"}'):
            with pytest.raises(ProtocolError):
                decode_frame_payload(K_PING, payload)
        with pytest.raises(ProtocolError):
            violation_from_dict({"axiom": "EXT", "tid": 1, "kind": "nope"})
        # A client parses a result reply from outside the process.
        for data in ({}, 5, {"violations": 5}, {"violations": [5]}):
            with pytest.raises(ProtocolError):
                result_from_dict(data)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(port=None).validate()
        with pytest.raises(ValueError):
            ServiceConfig(level="serializable").validate()
        with pytest.raises(ValueError):
            ServiceConfig(level="ser", n_shards=2).validate()
        with pytest.raises(ValueError):
            ServiceConfig(queue_capacity=0).validate()
        assert ServiceConfig(n_shards=4).checker_kind == "sharded-aion-x4"
        assert ServiceConfig(level="ser").checker_kind == "aion-ser"


# ----------------------------------------------------------------------
# Daemon behaviour
# ----------------------------------------------------------------------

class TestDaemon:
    def test_submit_finalize_matches_in_process(self, start_service):
        handle = start_service()
        txns = anomaly_txns("dirty-read")
        with connect(handle) as client:
            client.submit_many(txns)
            result = client.finalize()
        baseline = Aion(AionConfig(timeout=float("inf")), clock=lambda: 0.0)
        for txn in txns:
            baseline.receive(txn)
        assert normalize_violations(result) == normalize_violations(baseline.finalize())
        baseline.close()

    def test_stats_counters(self, start_service):
        handle = start_service(n_shards=2)
        txns = anomaly_txns("lost-update")
        with connect(handle) as client:
            client.ping()
            client.submit_many(txns)
            processed = client.drain()
            stats = client.stats()
        assert processed == len(txns)
        assert stats["received"] == len(txns)
        assert stats["processed"] == len(txns)
        assert stats["resident_txns"] == len(txns)
        assert stats["queue_depth"] == 0
        assert stats["checker"] == "sharded-aion-x2"
        assert stats["violations"] == 1  # NOCONFLICT reports immediately
        assert stats["estimated_bytes"] > 0
        assert stats["throughput"]["total"] == len(txns)
        assert stats["gc"]["cycles"] == 0
        assert stats["gc"]["seconds"] == 0.0
        assert stats["gc"]["threshold"] == 0
        assert stats["ext"] == {  # nothing finalized yet: every read is pending
            "pending_txns": sum(1 for txn in txns if txn.external_reads),
            "pending_reads": sum(len(txn.external_reads) for txn in txns),
        }
        assert stats["queue_high_water"] >= 1
        assert stats["latency"]["count"] >= 1

    def test_live_violation_push(self, start_service):
        handle = start_service()
        subscriber = connect(handle)
        subscriber.subscribe()
        with connect(handle) as producer:
            producer.submit_many(anomaly_txns("lost-update"))
            producer.drain()
        pushed = subscriber.wait_for_violations(1, timeout=10.0)
        assert len(pushed) == 1
        assert isinstance(pushed[0], ConflictViolation)
        subscriber.close()

    def test_idle_ext_timeout_pushes_without_traffic(self, start_service):
        # A finite EXT timeout arms real-clock deadlines; the periodic
        # poll must fire and push them while the wire is idle — no
        # further submits, no drain, no finalize.
        handle = start_service(timeout=0.2, poll_interval=0.05)
        subscriber = connect(handle)
        subscriber.subscribe()
        with connect(handle) as producer:
            producer.submit_many(anomaly_txns("dirty-read"))
            producer.drain()
        pushed = subscriber.wait_for_violations(1, timeout=10.0)
        assert pushed and pushed[0].axiom is Axiom.EXT
        subscriber.close()

    def test_subscribe_replay_delivers_backlog(self, start_service):
        handle = start_service()
        with connect(handle) as producer:
            producer.submit_many(anomaly_txns("lost-update"))
            producer.drain()
            late = connect(handle)
            late.subscribe(replay=True)
            pushed = late.wait_for_violations(1, timeout=10.0)
            assert len(pushed) == 1 and pushed[0].axiom is Axiom.NOCONFLICT
            late.close()

    def test_malformed_input_keeps_connection_alive(self, start_service):
        handle = start_service()
        with connect(handle) as client:
            # A well-formed frame of a kind only the daemon sends.
            client._sock.sendall(encode_json_frame(K_WELCOME, {"type": "welcome"}))
            assert "unknown message type" in client._read_message()["message"]
            client._sock.sendall(encode_json_frame(K_PING, {"type": "stats"}))
            assert "carries a 'stats' message" in client._read_message()["message"]
            # A submit frame whose columnar blob is garbage.
            client._sock.sendall(bytes([0xA6, 0x52, 2, 2, 0, 0, 0, 8]) + b"\0\0\0\1junk")
            assert client._read_message()["type"] == "error"
            # An empty submit frame, as a raw producer could send it.
            client._sock.sendall(encode_submit_frame([], 7))
            reply = client._read_message()
            assert reply["type"] == "error" and "no transactions" in reply["message"]
            # The client itself sends nothing for an empty batch.
            sent = client.frames_sent
            client.submit_many([])
            assert client.frames_sent == sent
            # After four rejected requests the connection still works.
            client.submit_many(anomaly_txns("dirty-read"))
            assert client.drain() == 3

    def test_rejected_batch_does_not_wedge_daemon(self, start_service):
        # Admission refuses what the checkers are known to refuse; any
        # other batch that makes receive_many raise must be dropped — not
        # kill the drain task, which would wedge every later
        # drain/finalize/shutdown on queue.join().
        handle = start_service()
        checker = handle.service.checker
        real = checker.receive_many

        def raise_once(batch):
            checker.receive_many = real
            raise ValueError("poison batch")

        checker.receive_many = raise_once
        with connect(handle) as client:
            client.submit_many(anomaly_txns("lost-update"))
            assert client.drain() == 0  # dropped, yet the queue drained
            stats = client.stats()
            assert stats["ingest_errors"] == 1
            assert "poison" in stats["last_ingest_error"]
            # The daemon keeps checking later submissions.
            client.submit_many(anomaly_txns("dirty-read"))
            result = client.finalize()
        assert not result.is_valid

    def test_append_submit_is_refused_at_admission(self, start_service):
        # Aion refuses list (append) operations online.  The submit that
        # carries one is answered with an error — not acked and then
        # dropped by the drain cycle together with whatever an honest
        # producer had queued beside it.
        handle = start_service()
        poison = Transaction(
            tid=99,
            sid=9,
            sno=1,
            ops=[Operation(OpKind.WRITE, "x", 1), Operation(OpKind.APPEND, "l", 1)],
            start_ts=1,
            commit_ts=2,
        )
        honest_txns = anomaly_txns("dirty-read")
        with connect(handle) as bad, connect(handle) as honest:
            honest.submit_many(honest_txns[:1])
            with pytest.raises(ServiceError, match="append"):
                bad.submit_many([poison])
            honest.submit_many(honest_txns[1:])
            assert honest.drain() == len(honest_txns)
            stats = honest.stats()
            assert stats["received"] == len(honest_txns)  # nothing of the refused submit
            assert stats["ingest_errors"] == 0
            # The refused producer's connection survives.
            bad.ping()
            result = honest.finalize()
        assert normalize_violations(result) == in_process_verdicts(honest_txns)

    @pytest.mark.parametrize(
        "corrupt, complaint",
        [(lambda blob: blob[:-1], "malformed columnar pack"),
         (lambda blob: blob + b"\0", "1 trailing bytes"),
         (lambda blob: patch(blob, _KINDS, b"\x09"), "unknown op code 9"),
         (lambda blob: patch(blob, _TAGS, b"\x63"), "unknown value tag 99"),
         (lambda blob: patch(blob, _KEY_IDS, struct.pack("!I", 5)), "list index out of range"),
         (lambda blob: patch(blob, _OFFSETS + 8, struct.pack("!I", 3)), "do not cover"),
         (lambda blob: patch(blob, _OFFSETS + 4, struct.pack("!I", 3)), "not monotonic"),
         (lambda blob: patch(blob, _KEY_TABLE + 2, b"\xff"), "can't decode byte 0xff"),
         (lambda blob: b"", "too short for its sequence number")],
        ids=["truncated", "trailing", "op-code", "value-tag", "dangling-key",
             "offsets-short", "offsets-unordered", "key-utf8", "no-seq"],
    )
    def test_malformed_submit_frame_is_refused_at_admission(
        self, start_service, corrupt, complaint
    ):
        # A submit frame whose header is sound but whose columnar blob is
        # not: the daemon answers with an error and keeps the connection
        # (the length was honoured, so the stream position is not lost);
        # nothing of the blob reaches the checker, and an honest
        # producer's transactions queued beside it are all checked.
        handle = start_service()
        honest_txns = anomaly_txns("dirty-read")
        payload = corrupt(pack_columnar(POISON_PAIR))
        if payload:
            payload = struct.pack("!I", 1) + payload
        else:
            payload = b"\0\0\1"
        frame = struct.pack(
            "!BBBBI", FRAME_MAGIC0, FRAME_MAGIC1, FRAME_VERSION, K_SUBMIT, len(payload)
        ) + payload
        with connect(handle) as bad, connect(handle) as honest:
            honest.submit_many(honest_txns[:1])
            bad._sock.sendall(frame)
            reply = bad._read_message()
            assert reply["type"] == "error" and complaint in reply["message"]
            honest.submit_many(honest_txns[1:])
            assert honest.drain() == len(honest_txns)
            stats = honest.stats()
            assert stats["received"] == len(honest_txns)  # nothing of the refused submit
            assert stats["ingest_errors"] == 0
            assert stats["wire"]["v2"]["decode_errors"] == 1
            bad.ping()  # the refused producer's connection survives
            result = honest.finalize()
        assert normalize_violations(result) == in_process_verdicts(honest_txns)

    def test_shutdown_checks_everything_a_parked_producer_was_told(self, start_service):
        # A large submit parked on a full queue while a second connection
        # asks for shutdown: whatever the producer is told was admitted
        # ("admitted N of M") is exactly what gets checked, and the
        # daemon still closes.
        handle = start_service(queue_capacity=4, batch_size=3)
        checker = handle.service.checker
        real = checker.receive_many

        def slow(batch):
            time.sleep(0.01)  # keep the producer parked in put()
            real(batch)

        checker.receive_many = slow
        txns = faulted_stream(600, seed=11, faults=8)
        outcome = {}

        def produce():
            with connect(handle) as producer:
                try:
                    producer.submit_many(txns)
                    outcome["admitted"] = len(txns)
                except ServiceError as exc:
                    outcome["admitted"] = int(
                        re.search(r"admitted (\d+) of", str(exc)).group(1)
                    )

        thread = threading.Thread(target=produce)
        with connect(handle) as control:
            thread.start()
            deadline = time.monotonic() + 10.0
            while control.stats(include_bytes=False)["received"] == 0:
                assert time.monotonic() < deadline, "the producer never queued anything"
                time.sleep(0.005)
            final = control.shutdown()
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        admitted = outcome["admitted"]
        assert 0 < admitted < len(txns)  # the shutdown caught it mid-submit
        assert checker.processed == admitted
        assert result_to_dict(final)["violations"] == in_process_ordered(txns[:admitted])
        assert handle.stop(timeout=10.0).violations == final.violations

    def test_one_thread_touches_the_checker(self, start_service):
        # Ingest, poll, GC, the bytes estimate behind STATS and /metrics,
        # finalize and close all run on the daemon's event-loop thread.
        handle = start_service(gc_threshold=200, batch_size=50, http_port=0)
        checker = handle.service.checker
        touched = {}
        for name in ("receive_many", "poll", "collect_below", "finalize", "estimated_bytes",
                     "close"):

            def spy(*args, _name=name, _real=getattr(checker, name), **kwargs):
                touched.setdefault(_name, set()).add(threading.get_ident())
                return _real(*args, **kwargs)

            setattr(checker, name, spy)
        txns = faulted_stream(600, seed=13, faults=8)
        with connect(handle) as client:
            client.submit_many(txns)
            client.drain()
            assert client.stats()["estimated_bytes"] > 0
            status, _ = http_get_text(*handle.http_address, "/metrics")
            assert status == 200
            final = client.shutdown()
        assert not final.is_valid
        handle.stop()
        assert set(touched) == {
            "receive_many", "poll", "collect_below", "finalize", "estimated_bytes", "close"
        }
        loop_thread = handle._thread.ident
        assert all(idents == {loop_thread} for idents in touched.values()), touched

    def test_loop_is_served_between_kernel_batches(self, start_service):
        # 200 slow kernel batches are queued at once; the drain task
        # yields after each one, so a ping on another connection is
        # answered long before the queue empties.
        handle = start_service(batch_size=10, queue_capacity=100_000)
        checker = handle.service.checker
        real = checker.receive_many
        checking = threading.Event()

        def slow(batch):
            checking.set()
            time.sleep(0.02)
            return real(batch)

        checker.receive_many = slow
        txns = faulted_stream(2000, seed=17, faults=4)
        with connect(handle) as producer, connect(handle) as probe:
            # One frame: it is admitted whole before the first batch is
            # checked.
            producer.submit_many(txns, ack=False)
            assert checking.wait(10.0)
            probe.ping()
            assert checker.processed < 1000
            checker.receive_many = real
            producer.drain()

    def test_backpressure_small_queue(self, start_service):
        handle = start_service(queue_capacity=4, batch_size=3)
        history = generate_default_history(
            WorkloadSpec(n_sessions=4, n_transactions=150, ops_per_txn=4, n_keys=40, seed=7)
        )
        txns = transactions_in_commit_order(history)
        with connect(handle) as client:
            client.submit_many(txns, ack=False)  # admission via TCP only
            assert client.drain() == len(txns)
            assert client.stats()["processed"] == len(txns)

    def test_unix_socket_listener(self, start_service, tmp_path):
        sock_path = tmp_path / "daemon.sock"
        handle = start_service(port=None, unix_path=sock_path)
        client = CheckerClient(unix_path=sock_path)
        client.connect()
        with client:
            client.submit_many(anomaly_txns("fractured-read"))
            result = client.finalize()
        assert not result.is_valid

    def test_gc_between_batches(self, start_service):
        handle = start_service(gc_threshold=50, batch_size=25)
        history = generate_default_history(
            WorkloadSpec(n_sessions=6, n_transactions=400, ops_per_txn=4, n_keys=60, seed=9)
        )
        txns = transactions_in_commit_order(history)
        with connect(handle) as client:
            client.submit_many(txns)
            client.drain()
            stats = client.stats()
        assert stats["gc"]["cycles"] >= 1
        assert stats["resident_txns"] < len(txns)

    def test_wire_shutdown_is_graceful(self, start_service):
        handle = start_service()
        txns = anomaly_txns("long-fork")
        client = connect(handle)
        client.submit_many(txns)
        final = client.shutdown()
        assert not final.is_valid and set(final.counts()) == {Axiom.EXT}
        client.close()
        # The daemon exited; new connections are refused.
        host, port = handle.tcp_address
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            try:
                CheckerClient(host, port, timeout=0.5).connect()
            except OSError:
                break
            time.sleep(0.05)
        else:
            pytest.fail("daemon still accepting connections after shutdown")
        assert handle.stop().violations == final.violations

    @pytest.mark.parametrize("how", ["stop", "kill"])
    def test_failed_hand_off_leaves_no_coroutine_unawaited(self, start_service, monkeypatch, how):
        """A hand-off to a loop that has closed raises RuntimeError; the
        stopping coroutine built for it is closed, not left for the
        collector to report as never awaited."""
        handle = start_service()

        def closed_loop(coroutine, loop):
            raise RuntimeError("Event loop is closed")

        monkeypatch.setattr("repro.service.daemon.asyncio.run_coroutine_threadsafe", closed_loop)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            getattr(handle, how)(timeout=0.1)
            gc.collect()
        monkeypatch.undo()
        assert [str(w.message) for w in caught if w.category is RuntimeWarning] == []

    def test_subscriber_sees_final_result_on_shutdown(self, start_service):
        handle = start_service()
        subscriber = connect(handle)
        subscriber.subscribe()
        with connect(handle) as producer:
            producer.submit_many(anomaly_txns("dirty-read"))
            producer.shutdown()
        # EXT only finalizes at shutdown; the push precedes the result.
        message = subscriber._read_until("result")
        assert result_from_dict(message).counts() == {Axiom.EXT: 1}
        assert len(subscriber.pushed) == 1
        subscriber.close()

    def test_replay_helper_reports(self, start_service):
        handle = start_service()
        txns = anomaly_txns("stale-sequential-read")
        with connect(handle) as client:
            report = replay_transactions(
                client, txns, batch_size=2, arrival_tps=500.0, finalize=True
            )
        assert report.sent == len(txns)
        assert report.batches == 2
        assert report.wire_tps > 0
        assert report.stats["processed"] == len(txns)
        assert report.result is not None and not report.result.is_valid


# ----------------------------------------------------------------------
# The handshake and wire accounting
# ----------------------------------------------------------------------

def read_frame(sock: socket.socket) -> dict:
    """One whole frame from a raw socket, decoded."""
    data = b""
    while len(data) < HEADER_SIZE:
        data += sock.recv(HEADER_SIZE - len(data))
    kind, length = decode_frame_header(data)
    payload = b""
    while len(payload) < length:
        payload += sock.recv(length - len(payload))
    return decode_frame_payload(kind, payload)


class TestProtocolNegotiation:
    def test_welcome_is_the_first_frame(self, start_service):
        handle = start_service()
        with connect(handle) as client:
            assert client.welcome == {
                "type": "welcome", "protocol": 2, "checker": "aion", "level": "si"
            }
            client.submit_many(anomaly_txns("dirty-read"))
            assert client.drain() == 3
            # A client without a session sends no hello.
            assert client.stats(include_bytes=False)["sessions"]["issued"] == 0

    def test_protocol_other_than_2_is_refused(self):
        # protocol=2 stays accepted: the benchmark ladder passes it.
        assert CheckerClient("127.0.0.1", 1, protocol=2).session_token is None
        for protocol in (None, 1, 3, "v2"):
            with pytest.raises(ValueError, match="protocol must be 2"):
                CheckerClient("127.0.0.1", 1, protocol=protocol)

    def test_sessionless_hello_gets_a_welcome(self, start_service):
        handle = start_service()
        with socket.create_connection(handle.tcp_address, timeout=10.0) as sock:
            assert read_frame(sock)["type"] == "welcome"
            sock.sendall(encode_json_frame(K_HELLO, {"type": "hello", "client": "probe"}))
            welcome = read_frame(sock)
        assert welcome["type"] == "welcome" and "session" not in welcome

    def test_ndjson_first_bytes_get_one_framed_error_and_close(self, start_service):
        handle = start_service()
        with socket.create_connection(handle.tcp_address, timeout=10.0) as sock:
            assert read_frame(sock)["type"] == "welcome"
            sock.sendall(b'{"type":"ping"}\n')
            reply = read_frame(sock)
            assert reply["type"] == "error" and "bad frame magic" in reply["message"]
            assert sock.recv(1) == b""  # closed by the daemon, nothing else sent
        # The daemon then serves a fresh client, and counted the refusal.
        with connect(handle) as client:
            client.submit_many(anomaly_txns("dirty-read"))
            assert client.drain() == 3
            assert client.stats(include_bytes=False)["wire"]["v2"]["decode_errors"] == 1

    def test_violation_push_and_result_over_v2(self, start_service):
        handle = start_service()
        subscriber = connect(handle)
        subscriber.subscribe()
        with connect(handle) as producer:
            producer.submit_many(anomaly_txns("lost-update"))
            producer.drain()
        pushed = subscriber.wait_for_violations(1, timeout=10.0)
        assert pushed and pushed[0].axiom is Axiom.NOCONFLICT
        result = subscriber.finalize()
        assert not result.is_valid
        subscriber.close()

    def test_wire_stats_account_frames(self, start_service):
        history = generate_default_history(
            WorkloadSpec(n_sessions=4, n_transactions=200, ops_per_txn=6, n_keys=40, seed=9)
        )
        txns = transactions_in_commit_order(history)
        handle = start_service()
        with connect(handle) as client:
            client.submit_many(txns)
            client.drain()
            wire = client.stats(include_bytes=False)["wire"]
        assert set(wire) == {"v2"}
        counters = wire["v2"]
        assert set(counters) == {"frames_in", "bytes_in", "frames_out", "bytes_out", "decode_errors"}
        # submit + drain + stats in; welcome + ack + drained out so far.
        assert counters["frames_in"] == 3 and counters["frames_out"] == 3
        assert counters["bytes_in"] > len(encode_submit_frame(txns, 1))
        assert counters["decode_errors"] == 0

    def test_wire_stats_count_decode_errors(self, start_service):
        from repro.service.framing import FRAME_MAGIC0

        handle = start_service()
        with connect(handle) as client:
            # A valid header whose payload is garbage: framing survives,
            # the message is rejected, the connection stays usable.
            garbage = bytes([FRAME_MAGIC0, 0x52, 2, 8, 0, 0, 0, 4]) + b"junk"
            client._sock.sendall(garbage)
            reply = client._read_message()
            assert reply["type"] == "error"
            wire = client.stats(include_bytes=False)["wire"]
            assert wire["v2"]["decode_errors"] == 1

    def test_torn_frame_close_does_not_wedge_daemon(self, start_service):
        handle = start_service()
        with connect(handle) as victim:
            frame = encode_submit_frame(anomaly_txns("dirty-read"), 1)
            victim._sock.sendall(frame[: len(frame) // 2])
            victim._sock.close()
            victim._sock = None
        time.sleep(0.05)
        # The daemon shrugged the torn connection off; a fresh client
        # still gets full service.
        with connect(handle) as client:
            client.submit_many(anomaly_txns("dirty-read"))
            assert client.drain() == 3
            assert client.stats(include_bytes=False)["wire"]["v2"]["decode_errors"] >= 1


class TestPipelinedSubmit:
    def _workload(self, seed=17):
        history = generate_default_history(
            WorkloadSpec(
                n_sessions=5, n_transactions=150, ops_per_txn=6, n_keys=30, seed=seed
            )
        )
        return transactions_in_commit_order(history)

    def test_pipelined_matches_sequential_verdict(self, start_service):
        txns = self._workload()
        sequential = start_service(batch_size=7)
        with connect(sequential) as client:
            client.submit_many(txns)
            expected = client.finalize()
            expected_stats = client.stats(include_bytes=False)
        pipelined = start_service(batch_size=7)
        with connect(pipelined) as client:
            batches = client.submit_pipelined(txns, batch_size=20, window=4)
            assert batches == (len(txns) + 19) // 20
            actual = client.finalize()
            stats = client.stats(include_bytes=False)
        assert stats["received"] == len(txns)
        assert stats["processed"] == expected_stats["processed"]
        assert result_to_dict(actual) == result_to_dict(expected)

    def test_fire_and_forget_window_then_drain(self, start_service):
        txns = self._workload(seed=23)
        handle = start_service()
        with connect(handle) as client:
            client.submit_pipelined(txns, batch_size=10, window=5, ack=False)
            assert client.drain() == len(txns)

    def test_window_and_batch_size_validated(self, start_service):
        handle = start_service()
        with connect(handle) as client:
            with pytest.raises(ValueError):
                client.submit_pipelined([], batch_size=0)
            with pytest.raises(ValueError):
                client.submit_pipelined([], window=0)

    def test_pipelined_stream_survives_mid_flight_kills(self, start_service):
        txns = self._workload(seed=31)
        handle = start_service()
        with connect(handle, auto_resume=True, reconnect_timeout=10.0) as client:
            # Sever the socket while a full window is in flight: the
            # resume replay must deliver every batch exactly once.
            client.chaos_kill_frames.update({3, 9})
            client.submit_pipelined(txns, batch_size=10, window=6)
            stats = client.stats(include_bytes=False)
            assert client.reconnects >= 1
            assert stats["received"] == len(txns)


def slow_checking(handle, seconds=0.02):
    """Make every kernel batch of ``handle``'s checker take ``seconds``
    longer, so submits wait in the ingest queue; returns the checker."""
    checker = handle.service.checker
    real = checker.receive_many

    def slow(batch):
        time.sleep(seconds)
        return real(batch)

    checker.receive_many = slow
    return checker


def wait_received(client, n, timeout=10.0):
    """Poll STATS until the daemon admitted ``n`` transactions."""
    deadline = time.monotonic() + timeout
    while client.stats(include_bytes=False)["received"] < n:
        assert time.monotonic() < deadline, "the daemon never admitted the stream"
        time.sleep(0.005)


class TestAckIsCredit:
    """An acked submit is acked when the drain task takes its last
    slice: a producer's window bounds its frames in the queue."""

    def test_window_bounds_the_producers_queued_frames(self, start_service):
        size, window = 20, 4
        handle = start_service(batch_size=size, queue_capacity=100_000)
        slow_checking(handle)
        txns = faulted_stream(600, seed=11, faults=8)
        with connect(handle) as client:
            client.submit_pipelined(txns, batch_size=size, window=window)
            client.drain()
            stats = client.stats(include_bytes=False)
        assert stats["received"] == len(txns)
        assert 0 < stats["queue_high_water"] <= window * size

    def test_no_ack_before_the_drain_takes_the_frame(self, start_service, monkeypatch):
        size = 40
        taken, lock = set(), threading.Lock()
        real_taken = _IngestQueue._taken

        def spy_taken(queue, entry):
            with lock:
                taken.update(entry[0].tids)
            return real_taken(queue, entry)

        # On the class, before the daemon starts: the drain task binds
        # the method when it first waits on the queue.
        monkeypatch.setattr(_IngestQueue, "_taken", spy_taken)
        handle = start_service(batch_size=size, queue_capacity=100_000)
        slow_checking(handle)
        txns = faulted_stream(600, seed=11, faults=8)
        frames = [txns[lo : lo + size] for lo in range(0, len(txns), size)]
        with connect(handle) as client:
            first_seq = client._seq + 1
            real_read = client._read_message
            early, acked = [], []

            def spy_read():
                message = real_read()
                if message.get("type") == "ack":
                    seq = message["seq"]
                    acked.append(seq)
                    with lock:
                        if not {txn.tid for txn in frames[seq - first_seq]} <= taken:
                            early.append(seq)
                return message

            client._read_message = spy_read
            client.submit_pipelined(txns, batch_size=size, window=4)
            client.drain()
        assert sorted(acked) == list(range(first_seq, first_seq + len(frames)))
        assert early == []

    def test_resume_finds_its_submit_still_queued(self, start_service):
        # A cut right after a submit left: the resume's welcome already
        # covers the still-queued submit, so the client replays nothing.
        # A producer that re-sends it anyway gets a duplicate ack at
        # once, ahead of the original's; the submit is checked once.
        handle = start_service(batch_size=10, queue_capacity=100_000)
        checker = slow_checking(handle)
        txns = faulted_stream(400, seed=19, faults=6)
        with connect(handle, auto_resume=True) as producer:
            producer.chaos_kill_frames.add(producer.frames_sent + 1)
            producer.submit_many(txns)
            assert checker.processed < len(txns)  # still queued
            assert producer.reconnects == 1
            assert (producer.recovered_acks, producer.replayed_batches) == (1, 0)
            seq, token = producer._seq, producer.session_token
            with connect(handle) as replayer:
                wait_received(replayer, len(txns))
                replayer._sendall(
                    encode_hello_frame(session=True, session_token=token, resume_from=0)
                )
                session = replayer._read_welcome()["session"]
                assert session == {"token": token, "acked_seq": seq, "resumed": True}
                replayer._sendall(encode_submit_frame(txns, seq))
                reply = replayer._await_reply("ack", (seq,))
                assert reply["duplicate"] is True and reply["enqueued"] == len(txns)
                assert checker.processed < len(txns)  # the original is still queued
                result = replayer.finalize()
                stats = replayer.stats(include_bytes=False)
        assert stats["received"] == len(txns)
        assert stats["sessions"]["deduped_txns"] == len(txns)
        assert result_to_dict(result)["violations"] == in_process_ordered(txns)

    def test_graceful_shutdown_acks_every_admitted_submit_first(self, start_service):
        size = 40
        handle = start_service(batch_size=10, queue_capacity=100_000)
        slow_checking(handle)
        txns = faulted_stream(200, seed=23, faults=4)
        with connect(handle) as producer, connect(handle) as control:
            seqs = []
            for lo in range(0, len(txns), size):
                producer._seq += 1
                seqs.append(producer._seq)
                producer._sendall(encode_submit_frame(txns[lo : lo + size], producer._seq))
            wait_received(control, len(txns))
            final = control.shutdown()
            replies = []
            with pytest.raises(ConnectionError):
                while True:
                    replies.append(producer._read_message())
        kinds = [reply["type"] for reply in replies]
        assert kinds == ["ack"] * len(seqs) + ["result", "bye"]
        assert [reply["seq"] for reply in replies[: len(seqs)]] == seqs
        assert producer.final_result.violations == final.violations
        assert result_to_dict(final)["violations"] == in_process_ordered(txns)

    def test_refusal_ahead_of_queued_acks_fails_the_stream(self, start_service):
        # A refusal leaves at once, ahead of acks still queued for
        # earlier frames: the pipelined stream raises on it instead of
        # waiting for an ack that never comes.
        handle = start_service(batch_size=10, queue_capacity=100_000)
        slow_checking(handle)
        poison = Transaction(
            tid=10_000, sid=99, sno=1,
            ops=[Operation(OpKind.WRITE, "x", 1), Operation(OpKind.APPEND, "l", 1)],
            start_ts=10**9, commit_ts=10**9 + 1,
        )
        stream = faulted_stream(200, seed=29, faults=4)[:200]
        txns = stream + [poison]
        with connect(handle, timeout=5.0) as client:
            with pytest.raises(ServiceError, match="append"):
                client.submit_pipelined(txns, batch_size=50, window=8)
            assert client.stats(include_bytes=False)["received"] == len(stream)


# ----------------------------------------------------------------------
# The differential acceptance claim
# ----------------------------------------------------------------------

def in_process_verdicts(txns, *, level="si", n_shards=1):
    config = AionConfig(timeout=float("inf"))
    if n_shards > 1:
        checker = ShardedAion(config, n_shards=n_shards, clock=lambda: 0.0)
    elif level == "si":
        checker = Aion(config, clock=lambda: 0.0)
    else:
        checker = AionSer(config, clock=lambda: 0.0)
    try:
        checker.receive_many(list(txns))
        return normalize_violations(checker.finalize())
    finally:
        checker.close()


def service_verdicts(
    start_service, txns, *, n_shards=1, level="si", n_clients=3, batch=2
):
    """Feed ``txns`` through ``n_clients`` concurrent connections.

    Sessions are partitioned across clients (each client ships its
    sessions in order, as any session-order-preserving producer must);
    interleaving *between* sessions is whatever the scheduler does.
    """
    handle = start_service(n_shards=n_shards, level=level, batch_size=7)
    by_client = [[] for _ in range(n_clients)]
    for txn in txns:
        by_client[txn.sid % n_clients].append(txn)
    errors = []

    def produce(mine):
        try:
            with connect(handle) as client:
                for offset in range(0, len(mine), batch):
                    client.submit_many(mine[offset : offset + batch])
        except Exception as exc:  # pragma: no cover - surfaced via assert
            errors.append(exc)

    threads = [threading.Thread(target=produce, args=(mine,)) for mine in by_client if mine]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors
    with connect(handle) as control:
        result = control.finalize()
    return normalize_violations(result)


@functools.lru_cache(maxsize=None)
def faulted_stream(n, *, seed, faults):
    """A generated stream with injected faults, in commit order (shared
    between parametrizations: treat the list as read-only)."""
    history = generate_default_history(
        WorkloadSpec(n_sessions=6, n_transactions=n, ops_per_txn=6, n_keys=40, seed=seed)
    )
    injector = FaultInjector(history, seed=seed)
    injector.inject_mix(faults)
    return transactions_in_commit_order(injector.build())


def in_process_ordered(txns, *, level="si", n_shards=1):
    """The violation report, in report order, of one in-process batch."""
    config = AionConfig(timeout=float("inf"))
    if n_shards > 1:
        checker = ShardedAion(config, n_shards=n_shards, clock=lambda: 0.0)
    else:
        checker = (Aion if level == "si" else AionSer)(config, clock=lambda: 0.0)
    try:
        checker.receive_many(list(txns))
        return result_to_dict(checker.finalize())["violations"]
    finally:
        checker.close()


def ordered_service_run(start_service, txns, *, connections, size, ack, n_shards=1, level="si"):
    """Submit ``txns`` in arrival order, ``size`` per submit, round-robin
    over ``connections`` connections; returns the ordered violation
    report and the daemon's stats.

    Arrival order is deterministic: one connection delivers in TCP
    order, and several connections alternate acked submits from this
    one thread (an ack means the drain task took the submit).
    """
    assert ack or connections == 1
    handle = start_service(n_shards=n_shards, level=level)
    clients = [connect(handle) for _ in range(connections)]
    try:
        for turn, offset in enumerate(range(0, len(txns), size)):
            clients[turn % len(clients)].submit_many(txns[offset : offset + size], ack=ack)
        for client in clients:
            client.drain()
        stats = clients[0].stats(include_bytes=False)
        result = clients[0].finalize()
    finally:
        for client in clients:
            client.close()
    return result_to_dict(result)["violations"], stats


class TestServiceDifferential:
    @pytest.mark.parametrize("name", sorted(ANOMALY_CATALOG))
    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_anomaly_catalog(self, start_service, name, n_shards):
        txns = anomaly_txns(name)
        expected = in_process_verdicts(txns, n_shards=n_shards)
        # Sanity: sharded == plain in-process before the wire enters.
        assert expected == in_process_verdicts(txns, n_shards=1)
        got = service_verdicts(start_service, txns, n_shards=n_shards)
        assert got == expected
        spec = ANOMALY_CATALOG[name]
        if spec.si_axiom is not None:
            assert any(item[0] == spec.si_axiom.value for item in got)
        elif spec.si_admissible:
            assert got == set()

    def test_fault_injected_workload(self, start_service):
        history = generate_default_history(
            WorkloadSpec(n_sessions=9, n_transactions=300, ops_per_txn=6, n_keys=50, seed=31)
        )
        injector = FaultInjector(history, seed=5)
        injector.inject_mix(6)
        txns = transactions_in_commit_order(injector.build())
        expected = in_process_verdicts(txns)
        assert expected, "fault injection should produce violations"
        for n_shards in (1, 2):
            got = service_verdicts(
                start_service, txns, n_shards=n_shards, n_clients=4, batch=11
            )
            assert got == expected

    def test_ser_level(self, start_service):
        txns = anomaly_txns("write-skew")
        expected = in_process_verdicts(txns, level="ser")
        got = service_verdicts(start_service, txns, level="ser", n_clients=2)
        assert got == expected
        assert got, "write skew must be flagged under SER"

    @pytest.mark.parametrize("connections", [1, 2])
    def test_anomaly_catalog_ordered_per_submit_size(self, start_service, connections):
        # Identical verdicts, in report order, through one connection or
        # two interleaving on one daemon, however small the submits are.
        for name in sorted(ANOMALY_CATALOG):
            txns = anomaly_txns(name)
            ordered = in_process_ordered(txns)
            for size in (1, 3, 10):
                got_ordered, _stats = ordered_service_run(
                    start_service, txns, connections=connections, size=size, ack=True
                )
                assert got_ordered == ordered, (name, connections, size)

    @pytest.mark.parametrize("n_clients", [1, 3])
    def test_anomaly_catalog_concurrent_producers(self, start_service, n_clients):
        # The same verdicts when the sessions of each fixture are spread
        # over concurrent producers, whose submits interleave however the
        # scheduler lets them.
        for name in sorted(ANOMALY_CATALOG):
            txns = anomaly_txns(name)
            got = service_verdicts(start_service, txns, n_clients=n_clients)
            assert got == in_process_verdicts(txns), (name, n_clients)

    @pytest.mark.parametrize("n_clients, batch", [(1, 500), (4, 13), (6, 1)])
    def test_generated_workload(self, start_service, n_clients, batch):
        history = generate_default_history(
            WorkloadSpec(n_sessions=6, n_transactions=240, ops_per_txn=6, n_keys=40, seed=77)
        )
        injector = FaultInjector(history, seed=3)
        injector.inject_mix(4)
        txns = transactions_in_commit_order(injector.build())
        expected = in_process_verdicts(txns)
        assert expected, "fault injection should produce violations"
        got = service_verdicts(start_service, txns, n_clients=n_clients, batch=batch)
        assert got == expected

    @pytest.mark.parametrize("size", [1, 3, 10, 500])
    @pytest.mark.parametrize("connections", [1, 2])
    def test_faulted_stream_ordered_per_submit_size(self, start_service, connections, size):
        # One ingest path: a 2,000-transaction faulted stream gives the
        # report of in-process Aion — same violations, same order —
        # through one connection or two, at any submit size; and small
        # fire-and-forget submits reach the kernel coalesced, not one
        # receive_many per submit.
        txns = faulted_stream(2000, seed=77, faults=16)
        expected = in_process_ordered(txns)
        assert expected, "fault injection should produce violations"
        got, stats = ordered_service_run(
            start_service, txns, connections=connections, size=size, ack=connections > 1
        )
        assert got == expected
        assert stats["received"] == stats["kernel"]["txns"] == len(txns)
        assert stats["ingest_errors"] == 0
        batches = stats["kernel"]["batches"]
        assert batches == stats["kernel"]["batch_size"]["count"]
        assert batches <= -(-len(txns) // size)
        if size <= 10 and connections == 1:
            assert batches <= len(txns) // (4 * size), (batches, size)

    @pytest.mark.parametrize("kind", ["sharded", "ser"])
    def test_faulted_stream_ordered_sharded_and_ser(self, start_service, kind):
        txns = faulted_stream(2000, seed=78, faults=16)
        extra = {"n_shards": 2} if kind == "sharded" else {"level": "ser"}
        expected = in_process_ordered(txns, **extra)
        assert expected
        if kind == "sharded":
            assert expected == in_process_ordered(txns)
        for connections, size in ((2, 3), (1, 500), (1, 10)):
            got, stats = ordered_service_run(
                start_service, txns, connections=connections, size=size, ack=True, **extra
            )
            assert got == expected, (kind, connections, size)
            assert stats["received"] == len(txns)


# ----------------------------------------------------------------------
# CLI integration: a real daemon process, driven over a unix socket
# ----------------------------------------------------------------------

class TestCliServeReplay:
    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--shards", "2", "--lane-kb", "64"],
            ["serve", "--shards", "2", "--executor", "shm-process"],
            ["chaos", "--shards", "2", "--executor", "shm-process"],
            ["serve", "--shards", "2", "--executor", "process"],
            ["chaos", "--shards", "2", "--executor", "process"],
        ],
        ids=[
            "serve-lane-kb", "serve-shm-executor", "chaos-shm-executor",
            "serve-process-executor", "chaos-process-executor",
        ],
    )
    def test_shared_memory_executor_options_are_gone(self, capsys, argv):
        """The shard transports other than in-process — shared-memory
        lanes with their ring size knob, then worker processes — were
        removed with the ``--executor`` option: asking for one is a usage
        error, not a silent fallback."""
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err

    @pytest.mark.parametrize(
        "argv",
        [["serve", "--protocol", "v2"], ["replay", "--anomaly", "dirty-read", "--protocol", "2"]],
        ids=["serve", "replay"],
    )
    def test_protocol_option_is_gone(self, capsys, argv):
        """One codec is left, so there is no codec to choose: the removed
        ``--protocol`` option is a usage error, not silently ignored."""
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --protocol" in capsys.readouterr().err

    def test_serve_over_tcp_as_the_benchmark_spawns_it(self):
        """The daemon command line the benchmark ladder runs: an
        OS-chosen port announced as ``listening on <host>:<port>``, and a
        ``protocol=2`` client that reaches it there."""
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--timeout", "30",
             "--queue-capacity", "8000", "--kernel-sample-every", "1"],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )
        try:
            printed = ""
            deadline = time.monotonic() + 20.0
            match = None
            while match is None:
                assert time.monotonic() < deadline, f"no address printed: {printed!r}"
                assert proc.poll() is None, printed + proc.stdout.read().decode()
                if select.select([proc.stdout], [], [], 0.2)[0]:
                    printed += os.read(proc.stdout.fileno(), 4096).decode()
                    match = re.search(r"listening on ([\d.]+):(\d+)", printed)
            client = CheckerClient(match.group(1), int(match.group(2)), protocol=2, timeout=20.0)
            client.connect(retry_for=10.0)
            with client:
                client.submit_many(anomaly_txns("lost-update"))
                assert client.drain() == 3
                kernel = client.stats()["kernel"]
                assert kernel["timed_batches"] == kernel["batches"] >= 1  # every batch timed
                result = client.shutdown()
            assert not result.is_valid
            assert proc.wait(timeout=20) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()

    @pytest.mark.parametrize(
        "shard_args", [[], ["--shards", "2"]], ids=["in-process", "sharded"]
    )
    def test_serve_replay_roundtrip(self, tmp_path, shard_args):
        """Including the exit summary, which the daemon takes before it
        closes its checker."""
        from repro.cli import main

        sock = tmp_path / "daemon.sock"
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--no-tcp", "--unix", str(sock),
             "--timeout", "inf", *shard_args],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            deadline = time.monotonic() + 20.0
            while not sock.exists():
                assert proc.poll() is None, proc.stdout.read()
                assert time.monotonic() < deadline, "daemon never bound its socket"
                time.sleep(0.05)
            rc = main(
                ["replay", "--anomaly", "lost-update", "--unix", str(sock),
                 "--expect", "violation", "--shutdown"]
            )
            assert rc == 0
            assert proc.wait(timeout=20) == 0
            output = proc.stdout.read()
            assert "listening on unix:" in output
            assert "NOCONFLICT=1" in output
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    def test_replay_expect_mismatch_fails(self, tmp_path):
        from repro.cli import main

        sock = tmp_path / "daemon.sock"
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--no-tcp", "--unix", str(sock),
             "--timeout", "inf"],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 20.0
            while not sock.exists():
                assert proc.poll() is None
                assert time.monotonic() < deadline
                time.sleep(0.05)
            rc = main(
                ["replay", "--anomaly", "dirty-read", "--unix", str(sock),
                 "--expect", "valid", "--shutdown"]
            )
            assert rc == 1  # the verdict is a violation, not valid
            assert proc.wait(timeout=20) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
