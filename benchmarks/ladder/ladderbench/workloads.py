"""The seven workloads.

Each workload turns one seeded stream into *repetitions*.  A repetition
returns raw ``time.monotonic()`` intervals; :mod:`ladderbench.report`
turns them into calibrated seconds once every host-speed sample of the
run is in.  Layers are only ever touched through public ``repro`` APIs.
"""

from __future__ import annotations

import gc
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.aion import Aion, AionConfig
from repro.core.aion_ser import AionSer
from repro.core.reference import normalize_violations
from repro.core.sharded import ShardedAion
from repro.core.violations import CheckResult, Violation
from repro.histories.model import History
from repro.histories.serialization import load_history, save_history
from repro.core.chronos import Chronos
from repro.online.clock import SimClock
from repro.service.client import CheckerClient

from ladderbench import inputs, paced, procs
from ladderbench.hostspeed import HostSpeed
from ladderbench.inputs import Stream

Interval = Tuple[float, float]

#: CHECKING_GC's public calls, scaled with the stream (the issue's
#: 8000/4000 on 60k transactions): nine or more cycles per repetition.
GC_THRESHOLD = 4000
GC_KEEP_RECENT = 2000
#: Closed-loop wire: frames in flight.
WINDOW = 8
#: Open loop: offered rate, batch size, batches discarded as warm-up.
PACED_TPS = 8000
PACED_BATCH = 100
PACED_WARMUP_BATCHES = 30
EXT_TIMEOUT = 5.0
#: In-process streams sample the host's speed after every this many
#: batches (~70 ms).  The kernel touches ~1 MB; run around every batch
#: it evicted enough of the checker's working set to slow batches by a
#: quarter, and the host's phases last a second or more anyway.
PROBE_EVERY = 4


@dataclass
class Context:
    """What a run shares across workloads and repetitions."""

    seed: int
    #: Sampled inline on the generator's CPU (in-process timed regions).
    speed: HostSpeed
    #: Sampled by the sidecar on the child's CPU (subprocess intervals).
    child_speed: HostSpeed
    gen_cpu: Optional[int]
    sut_cpu: Optional[int]
    tmp_dir: Path
    _streams: Dict[str, Stream] = field(default_factory=dict)

    def stream(self, name: str) -> Stream:
        if name not in self._streams:
            spec = inputs.si_spec(self.seed) if name == "S" else inputs.ser_spec(self.seed)
            self._streams[name] = inputs.build_stream(self.seed, name, spec)
        return self._streams[name]


@dataclass
class Rep:
    """One repetition, in raw monotonic intervals."""

    txns: int
    #: Timed regions; their calibrated sum is the repetition's time.
    timed: List[Interval]
    #: One interval per verdict-lag sample (handed over -> visible).
    lags: List[Interval]
    attempted: int
    failed: int
    notes: List[str] = field(default_factory=list)
    #: Open loop: the schedule, not the host, sets the wall time.
    calibrate_timed: bool = True
    setup: Optional[Interval] = None
    child_rss_mb: Optional[float] = None
    layer: Dict[str, float] = field(default_factory=dict)


class Workload:
    name = ""
    why = ""
    stream_name = "S"
    #: The system under test runs in a child process (sidecar calibrates).
    subprocess = False

    def prepare(self, ctx: Context) -> None:
        """Once per run, after inputs: not part of any metric."""
        ctx.stream(self.stream_name)

    def cold_start(self, ctx: Context) -> Optional[Interval]:
        """One ``setup_s`` sample, or None when repetitions carry it."""
        raise NotImplementedError

    def repetition(self, ctx: Context, tracer: Any) -> Rep:
        raise NotImplementedError


def _verdict_failures(stream: Stream, got: set, notes: List[str], where: str) -> int:
    wrong = got ^ stream.oracle
    if wrong:
        notes.append(
            f"{where}: {len(got - stream.oracle)} violations the oracle lacks, "
            f"{len(stream.oracle - got)} it has that were not reported"
        )
    return len(wrong)


# ----------------------------------------------------------------------
# In-process streams
# ----------------------------------------------------------------------


class StreamWorkload(Workload):
    """Closed loop: the arrival stream into ``receive_many``, 500 a batch."""

    def __init__(
        self,
        name: str,
        why: str,
        stream_name: str,
        make: Callable[[SimClock], Any],
        cold_code: str,
        *,
        collect: bool = False,
    ) -> None:
        self.name = name
        self.why = why
        self.stream_name = stream_name
        self.make = make
        self.cold_code = cold_code
        self.collect = collect

    def cold_start(self, ctx: Context) -> Interval:
        # What a library user pays before the first batch: interpreter,
        # ``import repro``, checker construction.
        ctx.speed.probe()
        code, _, _, t0, t1 = procs.run_child(
            ctx.gen_cpu, [sys.executable, "-c", self.cold_code]
        )
        ctx.speed.probe()
        if code != 0:
            raise RuntimeError(f"{self.name}: cold start exited with {code}")
        return t0, t1

    def repetition(self, ctx: Context, tracer: Any) -> Rep:
        stream = ctx.stream(self.stream_name)
        batches = stream.batches()
        traced = tracer.traced
        gc.collect()
        clock = SimClock()
        checker = self.make(clock)
        if traced:
            checker.kernel_stats.sample_every = 1
        probe = ctx.speed.probe
        mono = time.monotonic
        timed: List[Interval] = []
        reports = []
        try:
            probe()
            for index, (at, batch) in enumerate(batches):
                clock.advance_to(at)
                t0 = mono()
                with tracer.span("receive_many"):
                    checker.receive_many(batch)
                if self.collect and checker.resident_txn_count >= GC_THRESHOLD:
                    target = checker.suggest_gc_ts(keep_recent=GC_KEEP_RECENT)
                    if target is not None:
                        with tracer.span("collect_below"):
                            reports.append(checker.collect_below(target))
                t1 = mono()
                if index % PROBE_EVERY == PROBE_EVERY - 1:
                    probe()
                timed.append((t0, t1))
            lags = list(timed)
            fired = checker.flipflop_stats.n_finalized
            resident = checker.estimated_bytes() if traced else 0
            probe()
            t0 = mono()
            with tracer.span("finalize"):
                result = checker.finalize()
            t1 = mono()
            probe()
            timed.append((t0, t1))

            notes: List[str] = []
            unchecked = len(stream.txns) - checker.kernel_stats.txns
            if unchecked:
                notes.append(f"{unchecked} transactions not checked")
            failed = unchecked + _verdict_failures(
                stream, normalize_violations(result), notes, self.name
            )
            layer: Dict[str, float] = {}
            if traced:
                layer.update(kernel_layer(checker.kernel_stats.as_dict()))
                flips = checker.flipflop_stats.flips_per_pair
                layer["extstatus.timers_fired"] = fired
                layer["extstatus.flips"] = sum(n * count for n, count in flips.items())
                layer["resident_mb"] = resident / 1e6
                spill = checker.spill_store
                layer.update(
                    {
                        "gc.cycles": len(reports),
                        "gc.seconds": sum(r.seconds for r in reports),
                        "gc.pause_max_ms": max((r.seconds for r in reports), default=0.0) * 1e3,
                        "gc.evicted_versions": sum(r.evicted_versions for r in reports),
                        "gc.evicted_intervals": sum(r.evicted_intervals for r in reports),
                        "gc.evicted_txns": sum(r.evicted_txns for r in reports),
                        "gc.spill_bytes": spill.bytes_written if spill is not None else 0,
                        "gc.reloads": spill.reload_count if spill is not None else 0,
                    }
                )
        finally:
            checker.close()
        return Rep(
            txns=len(stream.txns), timed=timed, lags=lags,
            attempted=len(stream.txns) + stream.n_labels, failed=failed,
            notes=notes, layer=layer,
        )


def kernel_layer(kernel: Optional[Dict[str, Any]]) -> Dict[str, float]:
    """``KernelStats.as_dict()`` as per-layer metrics (stage split + counts)."""
    if not kernel:
        return {}
    stages = kernel["route_seconds"] + kernel["probe_seconds"] + kernel["verdict_seconds"]
    return {
        "kernel.route_s": kernel["route_seconds"],
        "kernel.probe_s": kernel["probe_seconds"],
        "kernel.verdict_s": kernel["verdict_seconds"],
        "kernel.glue_s": kernel["batch_seconds"] - stages,
        "kernel.route_ops": kernel["route_ops"],
        "kernel.probe_reads": kernel["probe_reads"],
        "kernel.probe_writes": kernel["probe_writes"],
        "kernel.verdict_tracks": kernel["verdict_tracks"],
        "kernel.verdict_reevals": kernel["verdict_reevals"],
        "kernel.verdict_conflicts": kernel["verdict_conflicts"],
        "versioned.probe_columns_s_per_batch": (
            kernel["probe_seconds"] / kernel["timed_batches"] if kernel["timed_batches"] else 0.0
        ),
    }


def _config() -> AionConfig:
    return AionConfig(timeout=EXT_TIMEOUT)


# ----------------------------------------------------------------------
# Offline CLI
# ----------------------------------------------------------------------


class OfflineCli(Workload):
    name = "offline_cli"
    why = (
        "python -m repro check on a saved history, spawn to exit: the CHRONOS path as a "
        "user runs it, dominated by histories.serialization, which no online workload touches"
    )
    subprocess = True

    def prepare(self, ctx: Context) -> None:
        stream = ctx.stream("S")
        self.path = ctx.tmp_dir / "S.jsonl"
        self.tiny = ctx.tmp_dir / "one.jsonl"
        save_history(History(stream.txns), self.path)
        save_history(History(stream.txns[:1]), self.tiny)

    def _check(self, ctx: Context, path: Path):
        # --max-report: print every violation, so the verdict can be
        # compared with the oracle's in full, not just by count.
        return procs.run_child(
            ctx.sut_cpu,
            [
                sys.executable, "-m", "repro", "check", str(path),
                "--level", "si", "--max-report", "1000000",
            ],
        )

    def cold_start(self, ctx: Context) -> Interval:
        code, _, _, t0, t1 = self._check(ctx, self.tiny)
        if code not in (0, 1):  # valid or invalid; the verdict is not the point here
            raise RuntimeError(f"repro check on a one-transaction file exited with {code}")
        return t0, t1

    def repetition(self, ctx: Context, tracer: Any) -> Rep:
        stream = ctx.stream("S")
        with tracer.span("repro check"):
            code, out, rss, t0, t1 = self._check(ctx, self.path)
        notes: List[str] = []
        failed = 0
        lines = out.splitlines()
        oracle = stream.oracle_result
        expected = [oracle.summary()] + sorted(v.describe() for v in oracle.violations)
        if code != 1 or lines[1:2] + sorted(l.strip() for l in lines[2:]) != expected:
            failed = len(stream.txns) + stream.n_labels
            notes.append(f"exit {code}, printed {lines[:2]!r}, oracle says {expected[0]!r}")
        layer: Dict[str, float] = {}
        if tracer.traced:
            ctx.speed.probe()
            l0 = time.monotonic()
            with tracer.span("load_history"):
                history = load_history(self.path)
            l1 = time.monotonic()
            ctx.speed.probe()
            checker = Chronos()
            with tracer.span("Chronos.check"):
                checker.check(history)
            c1 = time.monotonic()
            ctx.speed.probe()
            report = checker.report
            layer = {
                "chronos.sort_s": report.sort_seconds,
                "chronos.check_s": report.check_seconds,
                "chronos.gc_s": report.gc_seconds,
                # raw wall on both sides: the child's calibration is not
                # in until the sidecar stops
                "cli.overhead_s": (t1 - t0) - (c1 - l0),
                "serialization.load_jsonl_tps": len(stream.txns) / ctx.speed.calibrated(l0, l1),
            }
        return Rep(
            txns=len(stream.txns), timed=[(t0, t1)], lags=[(t0, t1)],
            attempted=len(stream.txns) + stream.n_labels, failed=failed,
            notes=notes, child_rss_mb=rss, layer=layer,
        )


# ----------------------------------------------------------------------
# Wire workloads
# ----------------------------------------------------------------------


class Watcher(threading.Thread):
    """The second connection: subscribes and timestamps every push."""

    def __init__(self, host: str, port: int) -> None:
        super().__init__(name="ladder-watcher", daemon=True)
        self.client = CheckerClient(host, port, protocol=2, timeout=procs.HARD_TIMEOUT)
        self.client.connect(retry_for=10.0)
        self.client.subscribe()
        self.pushes: List[Tuple[float, Violation]] = []
        self.error: Optional[BaseException] = None
        self._halt = threading.Event()
        self.start()

    def run(self) -> None:
        try:
            while not self._halt.is_set():
                try:
                    got = self.client.wait_for_violations(1, timeout=0.1)
                except TimeoutError:
                    continue
                now = time.monotonic()
                self.pushes.extend((now, violation) for violation in got)
        except (ConnectionError, OSError):
            pass  # the daemon said goodbye: every push before it is in
        except BaseException as exc:  # surfaced by finish()
            self.error = exc

    def halt(self) -> None:
        self._halt.set()

    def finish(self, timeout: float = 10.0) -> List[Tuple[float, Violation]]:
        """Wait for the daemon to close the connection (or stop waiting)."""
        self.join(timeout)
        self.halt()
        self.join(2.0)
        self.client.close()
        if self.error is not None:
            raise self.error
        return self.pushes + [(time.monotonic(), v) for v in self.client.take_violations()]


class WireWorkload(Workload):
    """A fresh ``repro serve`` subprocess per repetition, one v2 client
    sending and one subscribed."""

    subprocess = True
    calibrate_timed = True
    #: Send only this many transactions (the open-loop sweep); the
    #: oracle covers the whole stream, so a cut run is not verified.
    limit: Optional[int] = None

    def cold_start(self, ctx: Context) -> None:
        return None  # every repetition spawns its own daemon

    def drive(
        self, ctx: Context, tracer: Any, stream: Stream, sender: CheckerClient
    ) -> Tuple[List[Interval], Dict[int, float], Dict[str, float]]:
        """Send the stream; returns ``(timed, hand-over time per arrival
        index of each marker, extra layer numbers)``."""
        raise NotImplementedError

    def repetition(self, ctx: Context, tracer: Any) -> Rep:
        stream = ctx.stream("S")
        traced = tracer.traced
        gc.collect()
        extra = ["--timeout", str(EXT_TIMEOUT), "--queue-capacity", "8000"]
        if traced:
            extra += ["--kernel-sample-every", "1"]
        with tracer.span("daemon spawn"):
            daemon = procs.Daemon(ctx.sut_cpu, extra)
        sender: Optional[CheckerClient] = None
        watcher: Optional[Watcher] = None
        try:
            sender = CheckerClient(
                daemon.host, daemon.port, protocol=2, timeout=procs.HARD_TIMEOUT
            )
            sender.connect(retry_for=10.0)
            setup = (daemon.t_spawn, time.monotonic())
            watcher = Watcher(daemon.host, daemon.port)

            timed, handed, layer = self.drive(ctx, tracer, stream, sender)
            stats = sender.stats(include_bytes=traced)
            daemon.sample_rss()
            result = sender.shutdown(wait_timeout=procs.HARD_TIMEOUT)
            pushes = watcher.finish()
            exit_code = daemon.stop(grace=procs.HARD_TIMEOUT)
        finally:
            if watcher is not None:
                watcher.halt()
            if sender is not None:
                sender.close()
            daemon.stop()

        notes: List[str] = []
        n = len(stream.txns)
        failed = 0
        if self.limit is None:
            failed = self._failures(stream, stats, exit_code, result, pushes, notes)

        first_push: Dict[int, float] = {}
        for at, violation in pushes:
            first_push.setdefault(violation.tid, at)
        lags = [
            (handed[tid], first_push[tid])
            for tid in stream.markers
            if tid in handed and tid in first_push
        ]
        if traced:
            wall = sum(t1 - t0 for t0, t1 in timed)
            kernel = stats.get("kernel") or {}
            layer.update(kernel_layer(kernel))
            latency = stats["latency"]
            layer.update(
                {
                    "resident_mb": (stats.get("estimated_bytes") or 0) / 1e6,
                    "daemon.queue_high_water": stats["queue_high_water"],
                    "daemon.ingest_errors": stats["ingest_errors"],
                    "daemon.submit_to_verdict_p50_s": latency.get("p50_s") or 0.0,
                    "daemon.submit_to_verdict_p99_s": latency.get("p99_s") or 0.0,
                    "daemon.wire_bytes_in": stats["wire"]["v2"]["bytes_in"],
                    "daemon.kernel_share": kernel.get("batch_seconds", 0.0) / wall,
                }
            )
        return Rep(
            txns=n, timed=timed, lags=lags, attempted=n + stream.n_labels,
            failed=failed, notes=notes, calibrate_timed=self.calibrate_timed,
            setup=setup, child_rss_mb=daemon.rss_mb, layer=layer,
        )

    def _failures(self, stream, stats, exit_code, result, pushes, notes: List[str]) -> int:
        """Everything that must hold on the wire: all received, all
        checked, no ingest error, a clean exit, the oracle's verdict, and
        every injected fault pushed to the subscriber."""
        failed = 0
        for what, count in (
            ("transactions not received", len(stream.txns) - stats["received"]),
            ("transactions not checked", stream.n_checkable - stats["processed"]),
            ("ingest errors", stats["ingest_errors"]),
        ):
            if count:
                failed += abs(count)
                notes.append(f"{abs(count)} {what}")
        if exit_code != 0:
            failed += 1
            notes.append(f"daemon exited with {exit_code}")
        failed += _verdict_failures(stream, normalize_violations(result), notes, self.name)
        pushed = CheckResult()
        for _, violation in pushes:
            pushed.add(violation)
        unpushed = inputs.labels_missed(stream, normalize_violations(pushed))
        if unpushed:
            failed += unpushed
            notes.append(f"{unpushed} injected faults never pushed to the subscriber")
        return failed


class WireClosed(WireWorkload):
    name = "wire_closed"
    why = (
        "closed loop through a repro serve subprocess, 8 frames in flight: codec, framing, "
        "socket, ingest queue and drain thread on top of si_stream's kernel"
    )

    def drive(self, ctx, tracer, stream, sender):
        group = WINDOW * inputs.BATCH
        handed: Dict[int, float] = {}
        by_group: Dict[int, List[int]] = {}
        for tid, index in stream.markers.items():
            by_group.setdefault(index // group, []).append(tid)
        t_first = time.monotonic()
        for g, lo in enumerate(range(0, len(stream.txns), group)):
            now = time.monotonic()
            for tid in by_group.get(g, ()):
                handed[tid] = now
            with tracer.span("submit_pipelined"):
                sender.submit_pipelined(
                    stream.txns[lo : lo + group], batch_size=inputs.BATCH,
                    window=WINDOW, ack=True,
                )
        with tracer.span("drain"):
            sender.drain(wait_timeout=procs.HARD_TIMEOUT)
        t_end = time.monotonic()
        layer = {}
        if tracer.traced:
            layer["client.submit_busy_s"] = tracer.total("submit_pipelined")
        return [(t_first, t_end)], handed, layer


class WirePaced(WireWorkload):
    name = "wire_paced"
    why = (
        "open loop at a fixed 8,000 txn/s in 100-txn batches, lag timed from each batch's "
        "due time: shows queueing and stalls a closed loop hides"
    )
    calibrate_timed = False

    def __init__(self, rate_tps: int = PACED_TPS, limit: Optional[int] = None) -> None:
        self.rate_tps = rate_tps
        self.limit = limit

    def drive(self, ctx, tracer, stream, sender):
        txns = stream.txns[: self.limit]
        batches = [txns[lo : lo + PACED_BATCH] for lo in range(0, len(txns), PACED_BATCH)]

        def send(batch: Sequence[Any]) -> None:
            with tracer.span("submit_many"):
                sender.submit_many(batch, ack=False)

        sends = paced.run_paced(batches, PACED_BATCH, self.rate_tps, send)
        backlog = sender.stats(include_bytes=False)
        with tracer.span("drain"):
            sender.drain(wait_timeout=procs.HARD_TIMEOUT)
        t_end = time.monotonic()
        handed = {
            tid: sends[index // PACED_BATCH].due
            for tid, index in stream.markers.items()
            if PACED_WARMUP_BATCHES <= index // PACED_BATCH < len(sends)
        }
        late = sorted(s.late for s in sends[PACED_WARMUP_BATCHES:])
        layer = {
            "paced.backlog_end": backlog["received"] - backlog["processed"],
            "paced.sent_late_p99_ms": late[int(0.99 * (len(late) - 1))] * 1e3 if late else 0.0,
        }
        return [(sends[0].started, t_end)], handed, layer


# ----------------------------------------------------------------------
# The set
# ----------------------------------------------------------------------


def _cold(expr: str, names: str) -> str:
    return f"from repro import {names}; {expr}"


ALL: List[Workload] = [
    StreamWorkload(
        "si_stream",
        "the Fig-12b out-of-order stream into Aion.receive_many, no GC: "
        "route/probe/verdict kernel and the per-key structures do all the work",
        "S",
        lambda clock: Aion(_config(), clock=clock),
        _cold("Aion(AionConfig(timeout=5.0))", "Aion, AionConfig"),
    ),
    StreamWorkload(
        "si_stream_gc",
        "the same stream with collect_below every 4000 resident transactions: eviction, "
        "spill and reloads beside inserts and probes, so a kernel gain bought with slower "
        "eviction shows here",
        "S",
        lambda clock: Aion(_config(), clock=clock),
        _cold("Aion(AionConfig(timeout=5.0))", "Aion, AionConfig"),
        collect=True,
    ),
    StreamWorkload(
        "ser_stream",
        "a read-heavy SER stream into AionSer.receive_many: no writer intervals, bypasses "
        "NOCONFLICT work and runs the second kernel a one-kernel refactor must not slow",
        "R",
        lambda clock: AionSer(_config(), clock=clock),
        _cold("AionSer(AionConfig(timeout=5.0))", "AionSer, AionConfig"),
    ),
    StreamWorkload(
        "sharded_x2",
        "the SI stream into ShardedAion(n_shards=2, executor='serial'): the coordinator "
        "tax (routing, command plumbing, result merge) with no transport noise",
        "S",
        lambda clock: ShardedAion(_config(), n_shards=2, clock=clock, executor="serial"),
        _cold(
            "ShardedAion(AionConfig(timeout=5.0), n_shards=2, executor='serial').close()",
            "ShardedAion, AionConfig",
        ),
    ),
    OfflineCli(),
    WireClosed(),
    WirePaced(),
]
BY_NAME = {w.name: w for w in ALL}
