"""Shared-memory shard lanes: ring semantics, transport equivalence,
fallbacks, and wedge detection.

Three layers, mirroring the transport's claims:

- :class:`repro.core.shm.ShmRing` behaves as a FIFO byte ring under
  wrap-around, backpressure, and interleaved push/pop (checked against a
  deque model);
- a probe request and its three result columns survive the lane codec
  exactly (every strict value kind, empty sections), and a value the
  codec cannot reproduce is refused rather than degraded;
- ``ShardedAion(executor="shm-process")`` is verdict-identical to the
  serial executor across the anomaly catalog × 1/2/4/8 shards, with the
  lane path actually exercised — and still identical when frames cannot
  use the lanes (tiny rings, unencodable values) and fall back to the
  pipe;
- a killed worker surfaces as an error instead of a hang, and a wedged
  (alive-but-stalled) worker is caught by the heartbeat watchdog.
"""

import os
import random
import signal
import time
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aion import Aion, AionConfig
from repro.core.colpack import (
    UnencodableValue,
    pack_probe_frame,
    pack_result_frame,
    unpack_probe_frame,
    unpack_result_frame,
)
from repro.core.common import BOTTOM
from repro.core.reference import normalize_violations
from repro.core.sharded import ShardedAion
from repro.core.shm import ShmRing, shm_available
from repro.histories.anomalies import ANOMALY_CATALOG
from repro.histories.model import Operation, OpKind, Transaction

shm_only = pytest.mark.skipif(
    not shm_available(), reason="POSIX shared memory unavailable"
)


@pytest.fixture
def ring():
    r = ShmRing.create(4096)
    yield r
    r.close(unlink=True)


# ----------------------------------------------------------------------
# Ring semantics
# ----------------------------------------------------------------------


@shm_only
class TestRing:
    def test_fifo_roundtrip(self, ring):
        frames = [bytes([i]) * (i * 7 % 200 + 1) for i in range(50)]
        for frame in frames:
            assert ring.try_push(frame)
            view = ring.try_pop()
            assert bytes(view) == frame
            ring.consume()
        assert ring.try_pop() is None
        assert ring.frames_pushed() == ring.frames_popped() == len(frames)

    def test_wrap_around_preserves_fifo(self, ring):
        # Frames sized so successive pushes straddle the ring edge and
        # force wrap markers many times over.
        size = ring.capacity // 3 - 16
        for i in range(64):
            frame = bytes([i % 251]) * size
            assert ring.try_push(frame)
            view = ring.try_pop()
            assert bytes(view) == frame
            ring.consume()

    def test_full_ring_backpressure(self, ring):
        frame = b"x" * 512
        pushed = 0
        while ring.try_push(frame):
            pushed += 1
        assert pushed >= (ring.capacity // (len(frame) + 4)) - 1
        assert not ring.try_push(frame)  # full: producer must back off
        assert ring.try_pop() is not None
        ring.consume()
        assert ring.try_push(frame)  # one slot freed, one push fits

    def test_oversize_payload_refused(self, ring):
        too_big = b"y" * (ring.max_frame + 1)
        assert not ring.try_push(too_big)
        with pytest.raises(ValueError):
            ring.push(too_big)
        assert ring.try_push(b"y" * ring.max_frame)  # bound is inclusive

    def test_pop_requires_consume(self, ring):
        assert ring.try_push(b"a")
        assert ring.try_push(b"b")
        assert bytes(ring.try_pop()) == b"a"
        with pytest.raises(RuntimeError):
            ring.try_pop()
        ring.consume()
        assert bytes(ring.try_pop()) == b"b"
        ring.consume()
        with pytest.raises(RuntimeError):
            ring.consume()

    def test_attach_shares_the_ring(self, ring):
        peer = ShmRing.attach(ring.name)
        try:
            assert ring.try_push(b"hello")
            view = peer.try_pop()
            assert bytes(view) == b"hello"
            peer.consume()
            assert ring.lag() == 0
        finally:
            peer.close()

    def test_heartbeat_counts_beats(self, ring):
        assert ring.heartbeat() == 0
        for expected in (1, 2, 3):
            ring.beat()
            assert ring.heartbeat() == expected

    def test_blocking_pop_honours_abort_and_timeout(self, ring):
        assert ring.pop(timeout=0.01) is None
        assert ring.pop(abort=lambda: True) is None
        assert ring.try_push(b"z")
        assert bytes(ring.pop(timeout=0.01)) == b"z"
        ring.consume()

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.booleans(), st.binary(min_size=0, max_size=700)),
            max_size=60,
        )
    )
    def test_matches_deque_model(self, script):
        # Interleaved pushes and pops against a plain deque: whenever the
        # ring accepts/yields, the model must agree byte for byte.
        ring = ShmRing.create(4096)
        model = deque()
        try:
            for is_push, payload in script:
                if is_push:
                    if ring.try_push(payload):
                        model.append(payload)
                else:
                    view = ring.try_pop()
                    if view is None:
                        assert not model
                    else:
                        assert bytes(view) == model.popleft()
                        ring.consume()
            while model:
                view = ring.try_pop()
                assert view is not None
                assert bytes(view) == model.popleft()
                ring.consume()
            assert ring.try_pop() is None
        finally:
            ring.close(unlink=True)


# ----------------------------------------------------------------------
# Lane frame codec
# ----------------------------------------------------------------------

_strict_values = st.recursive(
    st.one_of(
        st.none(), st.just(BOTTOM), st.booleans(), st.text(max_size=6),
        st.integers(-(2**63), 2**63 - 1), st.floats(allow_nan=False),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.lists(inner, max_size=3).map(tuple)
    ),
    max_leaves=6,
)
_ts = st.integers(0, 2**40)
_keys = st.text(max_size=5)


def _typed(value):
    """Value plus its exact type tree (True == 1 must not pass for it)."""
    if isinstance(value, (list, tuple)):
        return type(value), [_typed(item) for item in value]
    return type(value), value


@settings(max_examples=60, deadline=None)
@given(
    removals=st.lists(st.tuples(_keys, _ts, _ts), max_size=4),
    reads=st.lists(st.tuples(_keys, _ts, _ts), max_size=6),
    writes=st.lists(st.tuples(_keys, _strict_values, _ts, _ts, _ts), max_size=6),
    optimized=st.booleans(),
)
def test_probe_frame_round_trip(removals, reads, writes, optimized):
    streams = {}
    for index, read in enumerate(reads):
        streams.setdefault(read[0], []).append(index << 1)
    for index, write in enumerate(writes):
        streams.setdefault(write[0], []).append(index << 1 | 1)
    request = (
        removals, streams,
        *([read[i] for read in reads] for i in (1, 2)),
        *([write[i] for write in writes] for i in (1, 2, 3, 4)),
        optimized,
    )
    cache = {}
    decoded = unpack_probe_frame(memoryview(pack_probe_frame(*request, cache)))
    assert decoded[0] == removals
    assert list(decoded[1]) == list(streams)  # stream order is probe order
    assert {key: list(codes) for key, codes in decoded[1].items()} == streams
    assert _typed(list(decoded[2:8])) == _typed([list(column) for column in request[2:8]])
    assert decoded[8] is optimized
    assert set(cache) == set(streams) | {removal[0] for removal in removals}


_tid = st.integers(-(2**63), 2**63 - 1)
#: One write's re-checks: reader tids, or the ablation's (expected, tid) rows.
_REEVALS = {
    "optimized": st.lists(_tid, min_size=1, max_size=3),
    "ablation": st.lists(st.tuples(_strict_values, _tid), min_size=1, max_size=3),
}


@pytest.mark.parametrize("mode", sorted(_REEVALS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_result_frame_round_trip(mode, data):
    r_expected = data.draw(st.lists(_strict_values, max_size=6))
    per_write = data.draw(
        st.lists(
            st.tuples(
                st.none() | st.lists(st.tuples(_ts, _ts), min_size=1, max_size=3),
                st.none() | _REEVALS[mode],
            ),
            max_size=6,
        )
    )
    w_conflicts = [hits for hits, _ in per_write]
    w_reevals = [rows for _, rows in per_write]
    frame = pack_result_frame(r_expected, w_conflicts, w_reevals)
    decoded = unpack_result_frame(memoryview(frame), len(r_expected), len(per_write))
    assert _typed(list(decoded)) == _typed([r_expected, w_conflicts, w_reevals])


@pytest.mark.parametrize("bad", [{"nested": 1}, 2**63, {1, 2}, b"raw"])
def test_lane_codec_refuses_what_it_cannot_reproduce(bad):
    with pytest.raises(UnencodableValue):
        pack_probe_frame([], {"x": [1]}, [], [], [bad], [1], [2], [3], True)
    with pytest.raises(UnencodableValue):
        pack_result_frame([bad], [], [])
    with pytest.raises(UnencodableValue):
        pack_result_frame([], [None], [[(bad, 1)]])


def test_result_frame_refuses_a_tid_beyond_i64():
    """The reader-tid column is raw i64: a tid the strict codec would
    have refused falls back to the pipe the same way."""
    with pytest.raises(UnencodableValue):
        pack_result_frame([], [None], [[2**63]])


#: (r_expected, w_conflicts, w_reevals) with every section populated.
_SAMPLE_RESULTS = {
    "optimized": (
        [1, None, BOTTOM, "str ✓", (1, [2.5, None])],
        [None, [(7, 70), (8, 80)], None, [(9, 90)]],
        [[11, 12], None, None, [13, -(2**63), 2**63 - 1]],
    ),
    "ablation": (
        [BOTTOM, 2],
        [[(7, 70)], None, None],
        [[(BOTTOM, 11), ("v", 12)], None, [((1, 2), 13)]],
    ),
}


@pytest.mark.parametrize("mode", sorted(_SAMPLE_RESULTS))
class TestResultFrameFuzz:
    """A lane frame is not checksummed (both ends are this program), so
    the decoder's own structure checks are what stand between a torn or
    corrupted frame and a verdict."""

    def test_round_trip(self, mode):
        results = _SAMPLE_RESULTS[mode]
        frame = pack_result_frame(*results)
        n_reads, n_writes = len(results[0]), len(results[1])
        assert _typed(list(unpack_result_frame(frame, n_reads, n_writes))) == _typed(list(results))

    def test_every_truncation_raises(self, mode):
        results = _SAMPLE_RESULTS[mode]
        frame = pack_result_frame(*results)
        n_reads, n_writes = len(results[0]), len(results[1])
        for cut in range(len(frame)):
            with pytest.raises(ValueError):
                unpack_result_frame(frame[:cut], n_reads, n_writes)
        with pytest.raises(ValueError):
            unpack_result_frame(frame + b"\x00", n_reads, n_writes)

    def test_a_frame_for_another_request_is_refused(self, mode):
        results = _SAMPLE_RESULTS[mode]
        frame = pack_result_frame(*results)
        n_reads, n_writes = len(results[0]), len(results[1])
        for claimed in ((n_reads + 1, n_writes), (n_reads, n_writes - 1), (0, 2**31)):
            with pytest.raises(ValueError, match="does not answer"):
                unpack_result_frame(frame, *claimed)

    def test_byte_flips_decode_well_formed_or_raise(self, mode):
        # A flipped byte may still decode (a digit inside a value, a
        # reader tid) — but into a well-formed triple of the request's
        # shape or a ValueError, never anything else.
        results = _SAMPLE_RESULTS[mode]
        frame = bytearray(pack_result_frame(*results))
        n_reads, n_writes = len(results[0]), len(results[1])
        rng = random.Random(2323)
        outcomes = {"ok": 0, "rejected": 0}
        for _ in range(600):
            index = rng.randrange(len(frame))
            original = frame[index]
            frame[index] ^= rng.randrange(1, 256)
            try:
                r_expected, w_conflicts, w_reevals = unpack_result_frame(
                    bytes(frame), n_reads, n_writes
                )
            except ValueError:
                outcomes["rejected"] += 1
            else:
                outcomes["ok"] += 1
                assert len(r_expected) == n_reads
                assert len(w_conflicts) == len(w_reevals) == n_writes
                for rows in w_reevals:
                    assert rows is None or all(
                        type(row) is (int if mode == "optimized" else tuple) for row in rows
                    )
            finally:
                frame[index] = original
        assert outcomes["ok"] > 0 and outcomes["rejected"] > 100


# ----------------------------------------------------------------------
# Transport equivalence (shm vs serial)
# ----------------------------------------------------------------------


def _serial_verdicts(txns, **kwargs):
    return _sharded_verdicts(txns, executor="serial", **kwargs)


def _sharded_verdicts(txns, *, n_shards=2, executor="shm-process", batch_size=4, **kwargs):
    checker = ShardedAion(
        AionConfig(timeout=float("inf")),
        n_shards=n_shards,
        clock=lambda: 0.0,
        executor=executor,
        **kwargs,
    )
    try:
        for offset in range(0, len(txns), batch_size):
            checker.receive_many(txns[offset : offset + batch_size])
        return normalize_violations(checker.finalize()), checker
    finally:
        checker.close()


@shm_only
@pytest.mark.parametrize("n_shards", [1, 2, 4, 8])
def test_anomaly_catalog_byte_identical_verdicts(n_shards):
    for name, fixture in ANOMALY_CATALOG.items():
        txns = list(fixture.build().transactions)
        expected, _ = _serial_verdicts(txns, n_shards=n_shards)
        actual, checker = _sharded_verdicts(txns, n_shards=n_shards)
        assert repr(actual) == repr(expected), (
            f"{name} x{n_shards}: shm verdicts diverge from serial"
        )
        # The equivalence must cover the lane transport, not the pipe
        # fallback quietly doing all the work.
        assert checker.lane_frames > 0
        assert checker.lane_fallbacks == 0


@shm_only
def test_randomized_workload_matches_aion():
    from repro.workloads.generator import generate_default_history
    from repro.workloads.spec import WorkloadSpec

    spec = WorkloadSpec(
        n_sessions=6, n_transactions=300, ops_per_txn=6, n_keys=12, seed=42
    )
    txns = list(generate_default_history(spec).transactions)
    baseline = Aion(AionConfig(timeout=float("inf")), clock=lambda: 0.0)
    for txn in txns:
        baseline.receive(txn)
    expected = normalize_violations(baseline.finalize())
    baseline.close()
    actual, checker = _sharded_verdicts(txns, n_shards=4, batch_size=32)
    assert repr(actual) == repr(expected)
    assert checker.lane_frames > 0


@shm_only
def test_tiny_rings_fall_back_to_pipe_with_identical_verdicts():
    from repro.workloads.generator import generate_default_history
    from repro.workloads.spec import WorkloadSpec

    spec = WorkloadSpec(
        n_sessions=4, n_transactions=200, ops_per_txn=6, n_keys=8, seed=9
    )
    txns = list(generate_default_history(spec).transactions)
    expected, _ = _serial_verdicts(txns, n_shards=2, batch_size=100)
    # 4096-byte rings cannot hold a 100-txn batch frame: every stream
    # must take the pipe path, and verdicts must not care.
    actual, checker = _sharded_verdicts(
        txns, n_shards=2, batch_size=100, lane_capacity=4096
    )
    assert repr(actual) == repr(expected)
    assert checker.lane_fallbacks > 0


@shm_only
def test_unencodable_values_fall_back_with_identical_verdicts():
    # Dict values survive the JSONL codec but not the strict lane codec:
    # the coordinator must detect UnencodableValue and use the pipe.
    txns = [
        Transaction(
            tid=1, sid=1, sno=1,
            ops=[Operation(OpKind.WRITE, "x", {"nested": 1})],
            start_ts=1, commit_ts=2,
        ),
        Transaction(
            tid=2, sid=1, sno=2,
            ops=[Operation(OpKind.READ, "x", {"nested": 1})],
            start_ts=3, commit_ts=4,
        ),
    ]
    expected, _ = _serial_verdicts(txns, n_shards=2)
    actual, checker = _sharded_verdicts(txns, n_shards=2)
    assert repr(actual) == repr(expected)
    assert checker.lane_fallbacks > 0


# ----------------------------------------------------------------------
# Failure detection
# ----------------------------------------------------------------------


@shm_only
def test_killed_worker_raises_instead_of_hanging():
    checker = ShardedAion(
        AionConfig(timeout=float("inf")),
        n_shards=2,
        clock=lambda: 0.0,
        executor="shm-process",
    )
    try:
        from repro.workloads.generator import generate_default_history
        from repro.workloads.spec import WorkloadSpec

        spec = WorkloadSpec(
            n_sessions=4, n_transactions=40, ops_per_txn=6, n_keys=16, seed=3
        )
        txns = list(generate_default_history(spec).transactions)
        checker.receive_many(txns[:10])
        for worker in checker._workers:
            os.kill(worker.pid, signal.SIGKILL)
            worker.join(timeout=10)
        assert not checker.workers_alive()
        with pytest.raises(RuntimeError, match="died"):
            checker.receive_many(txns[10:])
    finally:
        checker.close()


@shm_only
def test_wedged_worker_detected_by_heartbeat_and_recovers():
    checker = ShardedAion(
        AionConfig(timeout=float("inf")),
        n_shards=2,
        clock=lambda: 0.0,
        executor="shm-process",
        lane_stall_timeout=0.3,
    )
    try:
        txns = list(ANOMALY_CATALOG["dirty-read"].build().transactions)
        checker.receive_many(txns)
        assert checker.workers_alive()
        victim = checker._workers[1].pid
        os.kill(victim, signal.SIGSTOP)
        try:
            deadline = time.monotonic() + 10
            while checker.workers_alive():
                assert time.monotonic() < deadline, "wedge never detected"
                time.sleep(0.05)
            stalled = [row["shard"] for row in checker.lane_health() if row["stalled"]]
            assert stalled == [1]
        finally:
            os.kill(victim, signal.SIGCONT)
        deadline = time.monotonic() + 10
        while not checker.workers_alive():
            assert time.monotonic() < deadline, "worker never recovered"
            time.sleep(0.05)
    finally:
        checker.close()


@shm_only
def test_lane_health_and_shard_stats_surface_lane_counters():
    checker = ShardedAion(
        AionConfig(timeout=float("inf")),
        n_shards=2,
        clock=lambda: 0.0,
        executor="shm-process",
    )
    try:
        txns = list(ANOMALY_CATALOG["lost-update"].build().transactions)
        checker.receive_many(txns)
        rows = checker.lane_health()
        assert [row["shard"] for row in rows] == [0, 1]
        for row in rows:
            assert row["alive"]
            assert not row["stalled"]
            assert row["heartbeat"] > 0
            assert row["request_backlog_bytes"] == 0
        # The tiny fixture may route every key to one shard, but some
        # shard must have seen lane traffic.
        assert sum(row["request_bytes"] for row in rows) > 0
        stats = checker.shard_stats()
        assert sum(row["lane_bytes"] for row in stats) > 0
        for row in stats:
            assert row["lane_stalled"] == 0
    finally:
        checker.close()


def test_shm_refused_cleanly_when_unavailable(monkeypatch):
    import repro.core.shm as shm_mod

    monkeypatch.setattr(shm_mod, "_available", False)
    with pytest.raises(RuntimeError, match="shared memory"):
        ShardedAion(
            AionConfig(timeout=float("inf")), n_shards=2, executor="shm-process"
        )
