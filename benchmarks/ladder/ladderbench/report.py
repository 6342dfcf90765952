"""Metric declarations and the arithmetic from repetitions to numbers.

The names, units and directions here must agree with ``BENCHMARK.json``
(a unit test compares them).  Every end-to-end metric is defined on every
workload; a per-layer metric reads 0 on a workload whose traced run does
not exercise or measure that layer.
"""

from __future__ import annotations

import os
import platform
import resource
from typing import Any, Dict, List, Sequence, Tuple

from ladderbench import stats
from ladderbench.hostspeed import HostSpeed
from ladderbench.workloads import Context, Interval, Rep, Workload

#: (name, unit, better)
END_TO_END: List[Tuple[str, str, str]] = [
    ("ingest_tps", "txn/s", "higher"),
    ("detect_lag_p50_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
]

_RATES = "1/s"
PER_LAYER: List[Tuple[str, str, str]] = [
    # ordered index
    ("sortedmap.insert_ops_s", _RATES, "higher"),
    ("sortedmap.floor_ops_s", _RATES, "higher"),
    ("sortedmap.higher_ops_s", _RATES, "higher"),
    ("sortedmap.set_and_higher_ops_s", _RATES, "higher"),
    ("sortedmap.pop_below_ops_s", _RATES, "higher"),
    ("sortedmap.irange_items_s", _RATES, "higher"),
    ("intervals.overlap_queries_s", _RATES, "higher"),
    ("intervals.scanned_per_query", "count", "lower"),
    ("intervals.pop_ending_ops_s", _RATES, "higher"),
    ("intervals.gc_scanned_per_pop", "count", "lower"),
    # per-key structures
    ("versioned.value_at_ops_s", _RATES, "higher"),
    ("versioned.insert_and_next_ops_s", _RATES, "higher"),
    ("versioned.overlap_add_ops_s", _RATES, "higher"),
    ("versioned.ext_sweep_reads_s", _RATES, "higher"),
    ("versioned.probe_columns_s_per_batch", "s", "lower"),
    # batch kernel (KernelStats with sample_every=1, or STATS on the wire)
    ("kernel.route_s", "s", "lower"),
    ("kernel.probe_s", "s", "lower"),
    ("kernel.verdict_s", "s", "lower"),
    ("kernel.glue_s", "s", "lower"),
    ("kernel.route_ops", "count", "lower"),
    ("kernel.probe_reads", "count", "lower"),
    ("kernel.probe_writes", "count", "lower"),
    ("kernel.verdict_tracks", "count", "lower"),
    ("kernel.verdict_reevals", "count", "lower"),
    ("kernel.verdict_conflicts", "count", "lower"),
    ("kernel.span_coverage", "ratio", "higher"),
    ("extstatus.timers_fired", "count", "lower"),
    ("extstatus.flips", "count", "lower"),
    # in-process frontends
    ("aion.receive_tps", "txn/s", "higher"),
    ("aion.receive_many_tps", "txn/s", "higher"),
    ("aion.columnar_tps", "txn/s", "higher"),
    ("aionser.receive_tps", "txn/s", "higher"),
    ("aionser.receive_many_tps", "txn/s", "higher"),
    # garbage collection
    ("gc.cycles", "count", "lower"),
    ("gc.seconds", "s", "lower"),
    ("gc.pause_max_ms", "ms", "lower"),
    ("gc.evicted_versions", "count", "higher"),
    ("gc.evicted_intervals", "count", "higher"),
    ("gc.evicted_txns", "count", "higher"),
    ("gc.spill_bytes", "B", "lower"),
    ("gc.reloads", "count", "lower"),
    ("resident_mb", "MB", "lower"),
    # sharding
    ("sharded.x1_serial_tps", "txn/s", "higher"),
    ("sharded.x2_serial_tps", "txn/s", "higher"),
    ("sharded.x2_process_tps", "txn/s", "higher"),
    ("sharded.x2_shm_tps", "txn/s", "higher"),
    ("sharded.lane_frames", "count", "higher"),
    ("sharded.lane_fallbacks", "count", "lower"),
    ("sharded.coordinator_tax", "ratio", "lower"),
    # offline path
    ("serialization.load_jsonl_tps", "txn/s", "higher"),
    ("serialization.load_packed_tps", "txn/s", "higher"),
    ("serialization.save_jsonl_tps", "txn/s", "higher"),
    ("serialization.save_packed_tps", "txn/s", "higher"),
    ("serialization.bytes_per_txn", "B", "lower"),
    ("chronos.sort_s", "s", "lower"),
    ("chronos.check_s", "s", "lower"),
    ("chronos.gc_s", "s", "lower"),
    ("chronos.check_tps", "txn/s", "higher"),
    ("chronosser.check_tps", "txn/s", "higher"),
    ("cli.overhead_s", "s", "lower"),
    # wire
    ("framing.encode_s_per_batch", "s", "lower"),
    ("framing.decode_s_per_batch", "s", "lower"),
    ("framing.bytes_per_txn", "B", "lower"),
    ("protocol.v1_roundtrip_tps", "txn/s", "higher"),
    ("colpack.pack_tps", "txn/s", "higher"),
    ("colpack.unpack_tps", "txn/s", "higher"),
    ("shm.ring_mb_s", "MB/s", "higher"),
    ("daemon.queue_high_water", "count", "lower"),
    ("daemon.ingest_errors", "count", "lower"),
    ("daemon.submit_to_verdict_p50_s", "s", "lower"),
    ("daemon.submit_to_verdict_p99_s", "s", "lower"),
    ("daemon.wire_bytes_in", "B", "lower"),
    ("daemon.kernel_share", "ratio", "higher"),
    ("daemon.inthread_tps", "txn/s", "higher"),
    ("client.submit_busy_s", "s", "lower"),
    ("wire.tax", "ratio", "lower"),
    # open loop
    ("paced.detect_lag_tail_ms", "ms", "lower"),
    ("paced.detect_lag_tail_pct", "%", "higher"),
    ("paced.detect_lag_max_ms", "ms", "lower"),
    ("paced.stall_share", "ratio", "lower"),
    ("paced.sent_late_p99_ms", "ms", "lower"),
    ("paced.backlog_end", "count", "lower"),
    ("paced.sustainable_tps", "txn/s", "higher"),
    # the benchmark itself
    ("bench.inputs_s", "s", "lower"),
    ("bench.trace_overhead_pct", "%", "lower"),
    ("bench.host_speed", "ratio", "higher"),
    ("bench.raw_ingest_tps", "txn/s", "higher"),
    ("bench.failed_share", "ratio", "lower"),
    ("workloads.generate_tps", "txn/s", "higher"),
    ("collector.schedule_tps", "txn/s", "higher"),
]

#: A lag sample above this is a stall.
STALL_MS = 50.0


def host_facts() -> Dict[str, Any]:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def speed_for(workload: Workload, ctx: Context) -> HostSpeed:
    return ctx.child_speed if workload.subprocess else ctx.speed


def rep_seconds(rep: Rep, speed: HostSpeed) -> float:
    """A repetition's timed regions in calibrated (or, paced, raw) seconds."""
    if not rep.calibrate_timed:
        return sum(t1 - t0 for t0, t1 in rep.timed)
    return sum(speed.calibrated(t0, t1) for t0, t1 in rep.timed)


def lag_samples_ms(reps: Sequence[Rep], speed: HostSpeed) -> List[float]:
    return [speed.calibrated(t0, t1) * 1e3 for rep in reps for t0, t1 in rep.lags]


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(
    workload: Workload, ctx: Context, reps: Sequence[Rep], setups: Sequence[Interval]
) -> Dict[str, Dict[str, Any]]:
    """Median (with quartiles and count) of each end-to-end metric."""
    speed = speed_for(workload, ctx)
    tps = [rep.txns / rep_seconds(rep, speed) for rep in reps]
    lags = lag_samples_ms(reps, speed)
    if workload.subprocess:
        rss = [rep.child_rss_mb for rep in reps if rep.child_rss_mb]
    else:
        # The checker lives in this process: its high-water mark includes
        # the inputs held beside it, so growth shows, diluted.
        rss = [self_rss_mb()]
    setup = [speed.calibrated(t0, t1) for t0, t1 in setups]
    rows = {
        "ingest_tps": stats.summarize(tps),
        "detect_lag_p50_ms": stats.summarize(lags),
        "peak_rss_mb": stats.summarize(rss),
        "setup_s": stats.summarize(setup),
    }
    units = {name: unit for name, unit, _ in END_TO_END}
    for name, row in rows.items():
        row["value"] = row["median"]
        row["unit"] = units[name]
    return rows


def paced_tail(lags_ms: Sequence[float]) -> Dict[str, float]:
    """Tail of the open-loop lag at the highest percentile the sample holds."""
    if not lags_ms:
        return {}
    pct = stats.supported_tail(len(lags_ms)) or 50.0
    return {
        "paced.detect_lag_tail_ms": stats.percentile(lags_ms, pct),
        "paced.detect_lag_tail_pct": pct,
        "paced.detect_lag_max_ms": max(lags_ms),
        "paced.stall_share": sum(1 for lag in lags_ms if lag > STALL_MS) / len(lags_ms),
    }


def failure_counts(reps: Sequence[Rep]) -> Tuple[int, int, List[str]]:
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    notes = [note for rep in reps for note in rep.notes]
    return attempted, failed, notes


def format_row(name: str, row: Dict[str, Any]) -> str:
    return (
        f"  {name:<34} {row['median']:>14.4f} {row['unit']:<6}"
        f" q1 {row['q1']:.4f}  q3 {row['q3']:.4f}  n {row['n']}"
    )


def final_json(correct: bool, attempted: int, failed: int, metrics: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    return {
        "correct": bool(correct),
        "attempted": int(max(attempted, 1)),
        "failed": int(failed),
        "metrics": {
            name: {"value": row["value"], "unit": row["unit"]} for name, row in metrics.items()
        },
    }
