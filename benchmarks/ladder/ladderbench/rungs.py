"""Per-layer rungs: each layer timed alone, from outside, on fixed work.

A rung returns ``{metric name: value}``.  Rungs are grouped by the
workload whose end-to-end metric they are predicted to move (README,
"layer -> metric -> end-to-end"); the traced run of a workload runs its
own group and prints 0 for the others.  Times are calibrated with an
inline host-speed probe on each side of the timed call.
"""

from __future__ import annotations

import os
import statistics
import time
from random import Random
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.aion import Aion
from repro.core.aion_ser import AionSer
from repro.core.chronos import Chronos
from repro.core.chronos_ser import ChronosSer
from repro.core.colpack import pack_columnar, unpack_columnar
from repro.core.sharded import ShardedAion
from repro.core.shm import ShmRing, shm_available
from repro.core.versioned import ExtReadIndex, VersionedFrontier, WriterIntervals
from repro.histories.model import History
from repro.histories.serialization import (
    load_history_packed,
    save_history,
    save_history_packed,
    txn_from_dict,
    txn_to_dict,
)
from repro.online.clock import SimClock
from repro.service import CheckerClient, ServiceConfig, ServiceThread
from repro.service.framing import (
    HEADER_SIZE,
    decode_frame_header,
    decode_frame_payload,
    encode_submit_frame,
)
from repro.service.protocol import decode_line, encode_message
from repro.util.intervals import Interval, IntervalIndex
from repro.util.sortedmap import SortedMap

from ladderbench import inputs, procs
from ladderbench.spans import NullTracer
from ladderbench.workloads import EXT_TIMEOUT, PACED_BATCH, Context, WirePaced, _config

Rung = Callable[[Context, Any], Dict[str, Optional[float]]]


def _seconds(ctx: Context, fn: Callable[[], Any]) -> float:
    """Calibrated seconds of one call."""
    ctx.speed.probe()
    t0 = time.monotonic()
    fn()
    t1 = time.monotonic()
    ctx.speed.probe()
    return ctx.speed.calibrated(t0, t1)


def _rate(ctx: Context, count: int, fn: Callable[[], Any]) -> float:
    return count / _seconds(ctx, fn)


# ----------------------------------------------------------------------
# Ordered index and per-key structures (-> ingest_tps on the SI streams)
# ----------------------------------------------------------------------


def sortedmap_rung(ctx: Context, tracer: Any) -> Dict[str, Optional[float]]:
    n = 20_000
    keys = list(range(n))
    Random(inputs.derive(ctx.seed, "rung.sortedmap")).shuffle(keys)
    probes = [(k * 7919) % (2 * n) for k in range(n)]
    filled = SortedMap()

    def insert() -> None:
        for k in keys:
            filled[k] = k

    def floor() -> None:
        f = filled.floor_item
        for p in probes:
            f(p)

    def higher() -> None:
        h = filled.higher_item
        for p in probes:
            h(p)

    def fused() -> None:
        sah = SortedMap().set_and_higher
        for k in keys:
            sah(k, k)

    swept = [0]

    def sweep() -> None:
        width = n // 100
        for s in range(0, n, n // 512):
            for _ in filled.irange(s, s + width):
                swept[0] += 1

    with tracer.span("sortedmap"):
        out = {
            "sortedmap.insert_ops_s": _rate(ctx, n, insert),
            "sortedmap.floor_ops_s": _rate(ctx, n, floor),
            "sortedmap.higher_ops_s": _rate(ctx, n, higher),
            "sortedmap.set_and_higher_ops_s": _rate(ctx, n, fused),
        }
        seconds = _seconds(ctx, sweep)
        out["sortedmap.irange_items_s"] = swept[0] / seconds
    return out


def sortedmap_pop_rung(ctx: Context, tracer: Any) -> Dict[str, Optional[float]]:
    n = 20_000
    m = SortedMap()
    for k in range(n):
        m[k] = k

    def drain() -> None:
        step = n // 64
        for cut in range(step, n + step, step):
            m.pop_below(cut)

    with tracer.span("sortedmap.pop_below"):
        return {"sortedmap.pop_below_ops_s": _rate(ctx, n, drain)}


def _aged_index(n_old: int, n_recent: int, base: int) -> IntervalIndex:
    """Many old short writer intervals below a recent active window —
    what a long-running checker accumulates per hot key."""
    index = IntervalIndex()
    for i in range(n_old):
        index.add(Interval(i, i + 1, owner=i))
    for i in range(n_recent):
        index.add(Interval(base + i, base + i + 40, owner=n_old + i))
    return index


def intervals_rung(ctx: Context, tracer: Any) -> Dict[str, Optional[float]]:
    n_old, n_recent, n_queries = 5000, 128, 1000
    base = 10 * (n_old + n_recent)
    index = _aged_index(n_old, n_recent, base)
    queries = [
        Interval(base + (i * 13) % n_recent, base + (i * 13) % n_recent + 25)
        for i in range(n_queries)
    ]

    def run() -> None:
        overlapping = index.overlapping
        for q in queries:
            overlapping(q)

    before = index.scan_steps
    with tracer.span("intervals.overlapping"):
        rate = _rate(ctx, n_queries, run)
    return {
        "intervals.overlap_queries_s": rate,
        "intervals.scanned_per_query": (index.scan_steps - before) / n_queries,
    }


def intervals_pop_rung(ctx: Context, tracer: Any) -> Dict[str, Optional[float]]:
    n_old, n_recent, pops = 5000, 128, 8
    base = 10 * (n_old + n_recent)
    index = _aged_index(n_old, n_recent, base)
    removed = [0]

    def run() -> None:
        for cut in range(n_old // pops, n_old + 1, n_old // pops):
            removed[0] += len(index.pop_ending_before(cut))

    before = index.gc_scan_steps
    with tracer.span("intervals.pop_ending_before"):
        seconds = _seconds(ctx, run)
    return {
        "intervals.pop_ending_ops_s": removed[0] / seconds,
        "intervals.gc_scanned_per_pop": (index.gc_scan_steps - before) / pops,
    }


def versioned_rung(ctx: Context, tracer: Any) -> Dict[str, Optional[float]]:
    n_keys, per_key = 200, 100
    rng = Random(inputs.derive(ctx.seed, "rung.versioned"))
    keys = [f"k{i:06d}" for i in range(n_keys)]
    writes = [(key, 10 * (v + 1), v) for key in keys for v in range(per_key)]
    rng.shuffle(writes)
    frontier = VersionedFrontier()
    writers = WriterIntervals()
    reads = ExtReadIndex()

    def insert() -> None:
        ins = frontier.insert_and_next_ts
        for tid, (key, ts, value) in enumerate(writes):
            ins(key, ts, value, tid)

    def value_at() -> None:
        at = frontier.value_at
        for key, ts, _ in writes:
            at(key, ts + 5)

    def overlap_add() -> None:
        add = writers.overlap_add
        for tid, (key, ts, _) in enumerate(writes):
            add(key, ts - 4, ts, tid)

    for tid, (key, ts, value) in enumerate(writes):
        reads.add(key, ts + 5, tid, value)
    swept = [0]

    def sweep() -> None:
        affected = reads.affected_by
        for key in keys:
            for lo in range(0, 10 * per_key, 80):
                for _ in affected(key, lo, lo + 80):
                    swept[0] += 1

    with tracer.span("versioned"):
        out = {
            "versioned.insert_and_next_ops_s": _rate(ctx, len(writes), insert),
            "versioned.value_at_ops_s": _rate(ctx, len(writes), value_at),
            "versioned.overlap_add_ops_s": _rate(ctx, len(writes), overlap_add),
        }
        seconds = _seconds(ctx, sweep)
        out["versioned.ext_sweep_reads_s"] = swept[0] / seconds
    return out


# ----------------------------------------------------------------------
# In-process frontends (the rungs between the structures and the wire)
# ----------------------------------------------------------------------

PER_OP_TXNS = 4000


def _per_op(ctx: Context, tracer: Any, stream_name: str, make) -> float:
    stream = ctx.stream(stream_name)
    clock = SimClock()
    checker = make(clock)
    chunk = list(zip(stream.arrivals[:PER_OP_TXNS], stream.txns[:PER_OP_TXNS]))

    def run() -> None:
        for at, txn in chunk:
            clock.advance_to(at)
            checker.receive(txn)
        checker.finalize()

    try:
        with tracer.span("receive (per-op)"):
            return _rate(ctx, len(chunk), run)
    finally:
        checker.close()


def _batched(ctx: Context, tracer: Any, make, batches: Sequence[Any], n: int, label: str) -> float:
    clock = SimClock()
    checker = make(clock)

    def run() -> None:
        for at, batch in batches:
            clock.advance_to(at)
            checker.receive_many(batch)
        checker.finalize()

    try:
        with tracer.span(label):
            return _rate(ctx, n, run)
    finally:
        checker.close()


def _make_aion(clock: SimClock) -> Aion:
    return Aion(_config(), clock=clock)


def columnar_rung(ctx: Context, tracer: Any) -> Dict[str, Optional[float]]:
    """``receive_many(ColumnarBatch)``: what the daemon hands the kernel
    once a submit frame is decoded — the base of ``wire.tax``."""
    stream = ctx.stream("S")
    columnar = [
        (at, unpack_columnar(pack_columnar(batch))[0]) for at, batch in stream.batches()
    ]
    return {
        "aion.columnar_tps": _batched(
            ctx, tracer, _make_aion, columnar, len(stream.txns), "receive_many (columnar)"
        )
    }


def aion_rung(ctx: Context, tracer: Any) -> Dict[str, Optional[float]]:
    stream = ctx.stream("S")
    return {
        "aion.receive_tps": _per_op(ctx, tracer, "S", _make_aion),
        "aion.receive_many_tps": _batched(
            ctx, tracer, _make_aion, stream.batches(), len(stream.txns),
            "receive_many (objects)",
        ),
        **columnar_rung(ctx, tracer),
    }


def aionser_rung(ctx: Context, tracer: Any) -> Dict[str, Optional[float]]:
    stream = ctx.stream("R")
    make = lambda clock: AionSer(_config(), clock=clock)  # noqa: E731
    return {
        "aionser.receive_tps": _per_op(ctx, tracer, "R", make),
        "aionser.receive_many_tps": _batched(
            ctx, tracer, make, stream.batches(), len(stream.txns), "receive_many (objects)"
        ),
    }


SHARD_PROCESS_TXNS = 10_000


def sharded_rung(ctx: Context, tracer: Any) -> Dict[str, Optional[float]]:
    """The coordinator over one shard, two shards, and both process
    transports.  The process rungs move no end-to-end metric today; they
    are recorded (with ``cpu_count`` in the host facts) so the keep-or-
    delete decision has a number, and read ``None`` when an executor is
    unavailable or its name is rejected."""
    stream = ctx.stream("S")
    batches = stream.batches()
    n = len(stream.txns)
    short = batches[: SHARD_PROCESS_TXNS // inputs.BATCH]
    out: Dict[str, Optional[float]] = {
        "sharded.lane_frames": 0,
        "sharded.lane_fallbacks": 0,
    }

    def sharded(n_shards: int, executor: str):
        return lambda clock: ShardedAion(
            _config(), n_shards=n_shards, clock=clock, executor=executor
        )

    plain = _batched(ctx, tracer, _make_aion, batches, n, "Aion.receive_many")
    out["sharded.x1_serial_tps"] = _batched(ctx, tracer, sharded(1, "serial"), batches, n, "x1 serial")
    out["sharded.x2_serial_tps"] = _batched(ctx, tracer, sharded(2, "serial"), batches, n, "x2 serial")
    out["sharded.coordinator_tax"] = plain / out["sharded.x1_serial_tps"]
    for metric, executor in (
        ("sharded.x2_process_tps", "process"),
        ("sharded.x2_shm_tps", "shm-process"),
    ):
        if executor == "shm-process" and not shm_available():
            out[metric] = None
            continue
        clock = SimClock()
        try:
            checker = ShardedAion(_config(), n_shards=2, clock=clock, executor=executor)
        except (ValueError, RuntimeError, OSError):
            out[metric] = None
            continue

        def run() -> None:
            for at, batch in short:
                clock.advance_to(at)
                checker.receive_many(batch)
            checker.finalize()

        try:
            with tracer.span(f"x2 {executor}"):
                out[metric] = _rate(ctx, sum(len(b) for _, b in short), run)
            out["sharded.lane_frames"] += checker.lane_frames
            out["sharded.lane_fallbacks"] += checker.lane_fallbacks
        finally:
            checker.close()
    return out


# ----------------------------------------------------------------------
# Offline path (-> ingest_tps on offline_cli only)
# ----------------------------------------------------------------------


def offline_rung(ctx: Context, tracer: Any) -> Dict[str, Optional[float]]:
    stream = ctx.stream("S")
    history = History(stream.txns)
    n = len(stream.txns)
    jsonl = ctx.tmp_dir / "rung.jsonl"
    packed = ctx.tmp_dir / "rung.rpch"
    with tracer.span("serialization"):
        out: Dict[str, Optional[float]] = {
            "serialization.save_jsonl_tps": _rate(ctx, n, lambda: save_history(history, jsonl)),
            "serialization.save_packed_tps": _rate(
                ctx, n, lambda: save_history_packed(history, packed)
            ),
            "serialization.load_packed_tps": _rate(ctx, n, lambda: load_history_packed(packed)),
            "serialization.bytes_per_txn": os.path.getsize(jsonl) / n,
        }
    with tracer.span("Chronos.check (rung)"):
        out["chronos.check_tps"] = _rate(ctx, n, lambda: Chronos().check(history))
    with tracer.span("ChronosSer.check (rung)"):
        # Speed only: the SER checker on the SI stream's transactions.
        out["chronosser.check_tps"] = _rate(ctx, n, lambda: ChronosSer().check(history))
    return out


# ----------------------------------------------------------------------
# Wire layers (-> wire_closed, wire_paced; no change in-process)
# ----------------------------------------------------------------------


def codec_rung(ctx: Context, tracer: Any) -> Dict[str, Optional[float]]:
    stream = ctx.stream("S")
    batches = [batch for _, batch in stream.batches()]
    n = len(stream.txns)
    frames: List[bytes] = []
    blobs: List[bytes] = []

    def encode() -> None:
        for batch in batches:
            with tracer.span("encode_submit_frame"):
                frames.append(encode_submit_frame(batch, 1))

    def decode() -> None:
        for frame in frames:
            kind, length = decode_frame_header(frame[:HEADER_SIZE])
            with tracer.span("decode_frame_payload"):
                decode_frame_payload(kind, memoryview(frame)[HEADER_SIZE : HEADER_SIZE + length])

    def pack() -> None:
        for batch in batches:
            blobs.append(pack_columnar(batch))

    def unpack() -> None:
        for blob in blobs:
            unpack_columnar(blob)

    v1 = stream.txns[:4000]

    def v1_roundtrip() -> None:
        for lo in range(0, len(v1), inputs.BATCH):
            line = encode_message(
                {"type": "submit", "txns": [txn_to_dict(t) for t in v1[lo : lo + inputs.BATCH]]}
            )
            for row in decode_line(line)["txns"]:
                txn_from_dict(row)

    out: Dict[str, Optional[float]] = {
        "framing.encode_s_per_batch": _seconds(ctx, encode) / len(batches),
        "framing.decode_s_per_batch": _seconds(ctx, decode) / len(batches),
        "colpack.pack_tps": _rate(ctx, n, pack),
        "colpack.unpack_tps": _rate(ctx, n, unpack),
        "protocol.v1_roundtrip_tps": _rate(ctx, len(v1), v1_roundtrip),
    }
    out["framing.bytes_per_txn"] = sum(len(f) for f in frames) / n
    out["shm.ring_mb_s"] = _shm_ring_mb_s(ctx, blobs)
    return out


def _shm_ring_mb_s(ctx: Context, blobs: Sequence[bytes]) -> Optional[float]:
    if not shm_available():
        return None
    ring = ShmRing.create(1 << 20)
    moved = [0]

    def run() -> None:
        for _ in range(8):
            for blob in blobs:
                if ring.try_push(blob):
                    moved[0] += len(ring.try_pop())
                    ring.consume()

    try:
        seconds = _seconds(ctx, run)
    finally:
        ring.close(unlink=True)
    return moved[0] / 1e6 / seconds if moved[0] else None


def inthread_rung(ctx: Context, tracer: Any) -> Dict[str, Optional[float]]:
    """The daemon on a thread of this process: the wire without a second
    interpreter (and with the generator's GIL in the way)."""
    stream = ctx.stream("S")
    config = ServiceConfig(port=0, timeout=EXT_TIMEOUT, queue_capacity=8000)
    with ServiceThread(config) as handle:
        client = CheckerClient(*handle.tcp_address, protocol=2, timeout=procs.HARD_TIMEOUT)
        client.connect()

        def run() -> None:
            client.submit_pipelined(stream.txns, batch_size=inputs.BATCH, window=8, ack=True)
            client.drain(wait_timeout=procs.HARD_TIMEOUT)

        try:
            with tracer.span("ServiceThread"):
                return {"daemon.inthread_tps": _rate(ctx, len(stream.txns), run)}
        finally:
            client.close()


# ----------------------------------------------------------------------
# Open-loop sweep (-> tail behaviour of wire_paced)
# ----------------------------------------------------------------------

SWEEP_RATES = (4000, 8000, 12000, 16000)
SWEEP_SECONDS = 1.5


def paced_sweep(ctx: Context, tracer: Any) -> Dict[str, Optional[float]]:
    """Highest offered rate with no growing backlog (under 5 % of what was
    sent still queued at the last send) and a raw p50 lag under 50 ms."""
    sustainable = 0.0
    for rate in SWEEP_RATES:
        limit = int(rate * SWEEP_SECONDS) // PACED_BATCH * PACED_BATCH
        with tracer.span(f"sweep {rate}"):
            rep = WirePaced(rate_tps=rate, limit=limit).repetition(ctx, NullTracer())
        lags_ms = [(t1 - t0) * 1e3 for t0, t1 in rep.lags]
        if (
            lags_ms
            and rep.layer["paced.backlog_end"] <= 0.05 * limit
            and statistics.median(lags_ms) < 50.0
        ):
            sustainable = float(rate)
    return {"paced.sustainable_tps": sustainable}


BY_WORKLOAD: Dict[str, List[Rung]] = {
    "si_stream": [sortedmap_rung, intervals_rung, versioned_rung, aion_rung],
    "si_stream_gc": [sortedmap_pop_rung, intervals_pop_rung],
    "ser_stream": [aionser_rung],
    "sharded_x2": [sharded_rung],
    "offline_cli": [offline_rung],
    "wire_closed": [codec_rung, inthread_rung, columnar_rung],
    "wire_paced": [paced_sweep],
}
