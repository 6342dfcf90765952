"""The read-only status view: ``stats()``, ``health()`` and ``/metrics``.

One snapshot feeds every introspection surface — the wire ``STATS``
reply, the CLI's exit summary, the HTTP sidecar's ``/stats`` and
``/metrics`` — so they cannot disagree.  :class:`StatusView` assembles
it from what each part of the daemon owns (the checker, the pipeline's
and the session table's counters, the connection edge's facts) on the
event-loop thread that also runs the checker, and :data:`_FAMILIES`
declares each snapshot-backed ``/metrics`` family exactly once: the row
that names a family also says where its value sits in the snapshot.  A
scrape renders those rows straight from its own snapshot, so the ingest
path makes no metric calls and keeps no second copy of a value —
hot-path counters stay plain ints.  The deep-size byte estimate is
cached for :data:`STATS_BYTES_TTL` seconds.
"""

from __future__ import annotations

import math
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.registry import render_family
from repro.obs.trace import SlowBatchLog
from repro.service import ingest as ingest_module
from repro.service.ingest import IngestPipeline
from repro.service.protocol import PROTOCOL_VERSION
from repro.service.sessions import RESUME_STORM_THRESHOLD, RESUME_STORM_WINDOW_S, SessionTable

__all__ = ["StatusView"]

_Stats = Dict[str, Any]

#: Seconds the checker's deep-size byte estimate stays cached.  Wire
#: STATS requests and ``/metrics`` scrapes share the cached figure, so a
#: scrape loop cannot stall ingest by re-walking the checker's structures
#: on the event loop on every request; 0 would re-measure every time.
STATS_BYTES_TTL = 2.0


def _at(stats: _Stats, dotted: str) -> Any:
    """The value under one dotted snapshot key."""
    for key in dotted.split("."):
        stats = stats[key]
    return stats


def _wire(field: str) -> Callable[[_Stats], Any]:
    return lambda stats: (
        ((codec, direction), counters[f"{field}_{direction}"])
        for codec, counters in stats["wire"].items()
        for direction in ("in", "out")
    )


def _kernel(stages: Tuple[str, ...], suffix: str = "") -> Callable[[_Stats], Any]:
    return lambda stats: (((stage,), stats["kernel"][stage + suffix]) for stage in stages)


#: ``(name, help, kind, labelnames, how to read it from a stats() snapshot)``.
#: An unlabelled family names its (dotted) snapshot key, which is never
#: ``None`` in ``stats(True)``; a labelled one has a reader that yields
#: ``(label values, value)`` pairs, the same label sets on every scrape.
#: Row order is exposition order, after the pipeline's histograms.
_FAMILIES: Tuple[Tuple[str, str, str, Tuple[str, ...], Any], ...] = (
    ("repro_uptime_seconds", "Seconds since the daemon started", "gauge", (), "uptime_s"),
    ("repro_ingested_txns_total", "Transactions admitted from the wire", "counter", (),
     "received"),
    ("repro_processed_txns_total", "Transactions checked by the online checker", "counter", (),
     "processed"),
    ("repro_violations_total", "Violations found since startup", "counter", (), "violations"),
    ("repro_pushed_violations_total", "Violation messages pushed to subscribers", "counter", (),
     "pushed_violations"),
    ("repro_ingest_errors_total", "Batches dropped by ingest errors", "counter", (),
     "ingest_errors"),
    ("repro_queue_depth_txns", "Transaction-weighted ingest queue depth", "gauge", (),
     "queue_depth"),
    ("repro_queue_high_water_txns", "Deepest ingest queue depth ever reached", "gauge", (),
     "queue_high_water"),
    ("repro_queue_capacity_txns", "Configured ingest queue capacity", "gauge", (),
     "queue_capacity"),
    ("repro_resident_txns",
     "Resident index entries (one tid -> commit_ts per arrival; no transaction is stored)",
     "gauge", (), "resident_txns"),
    ("repro_resident_bytes", "Deep-size estimate of checker state (TTL-cached)", "gauge", (),
     "estimated_bytes"),
    ("repro_ext_pending_reads",
     "External reads indexed for re-checking (EXT verdict not yet finalized)", "gauge", (),
     "ext.pending_reads"),
    ("repro_subscribers", "Connected violation subscribers", "gauge", (), "subscribers"),
    ("repro_subscribers_shed_total",
     "Subscribers disconnected because they stopped reading their pushes", "counter", (),
     "subscribers_shed"),
    ("repro_connections", "Open wire connections", "gauge", (), "connections"),
    ("repro_sessions_tracked", "Resume sessions held in the daemon's LRU table", "gauge", (),
     "sessions.tracked"),
    ("repro_sessions_issued_total", "Session tokens minted for hello handshakes", "counter", (),
     "sessions.issued"),
    ("repro_session_resumes_total", "Reconnects that resumed a known session token", "counter", (),
     "sessions.resumes"),
    ("repro_resume_deduped_txns_total",
     "Transactions skipped by (session, seq) dedup during resume replay", "counter", (),
     "sessions.deduped_txns"),
    ("repro_resume_rejected_total",
     "Resume attempts rejected (malformed token or stale watermark)", "counter", (),
     "sessions.rejected"),
    ("repro_resume_recent", "Session resumes inside the resume-storm health window", "gauge", (),
     "sessions.recent_resumes"),
    ("repro_wire_frames_total", "Wire messages by codec and direction", "counter",
     ("codec", "direction"), _wire("frames")),
    ("repro_wire_bytes_total", "Wire bytes by codec and direction", "counter",
     ("codec", "direction"), _wire("bytes")),
    ("repro_wire_decode_errors_total", "Undecodable wire messages by codec", "counter", ("codec",),
     lambda stats: (((codec,), c["decode_errors"]) for codec, c in stats["wire"].items())),
    ("repro_kernel_batches_total",
     "Batches routed through the staged kernel (a receive() call is a batch of one)", "counter",
     (), "kernel.batches"),
    ("repro_kernel_txns_total", "Transactions decoded by the kernel route pass", "counter", (),
     "kernel.txns"),
    ("repro_kernel_ops_total", "Kernel operations by stage counter", "counter", ("stage",),
     _kernel(("route_ops", "probe_reads", "probe_writes", "verdict_tracks", "verdict_reevals",
              "verdict_conflicts"))),
    ("repro_kernel_stage_seconds_total",
     "Sampled wall time per kernel stage (see repro_kernel_timed_batches_total)", "counter",
     ("stage",), _kernel(("route", "probe", "verdict", "batch"), "_seconds")),
    ("repro_kernel_timed_batches_total", "Batches whose stage timings were sampled", "counter", (),
     "kernel.timed_batches"),
    ("repro_kernel_slow_batches_total", "Batches exceeding the slow-batch threshold", "counter",
     (), "kernel.slow_batches"),
    ("repro_gc_cycles_total", "Completed GC cycles", "counter", (), "gc.cycles"),
    ("repro_gc_seconds_total", "Wall time spent in GC", "counter", (), "gc.seconds"),
    *(
        (f"repro_gc_evicted_{kind}_total", f"Resident {kind} moved to spill segments", "counter",
         (), f"gc.evicted.{kind}")
        for kind in ("versions", "intervals")
    ),
    ("repro_gc_evicted_txns_total",
     "Resident index entries released by GC (nothing is written for them)", "counter", (),
     "gc.evicted.txns"),
    ("repro_gc_spill_bytes_total", "Bytes written to spill segments", "counter", (),
     "gc.spill_bytes"),
    ("repro_gc_reloads_total", "Spill segments read back on demand", "counter", (), "gc.reloads"),
    ("repro_host_gc_collections_total",
     "Passes of the host runtime's cyclic collector (CPython gc) in this process", "counter",
     ("generation",),
     lambda stats: (((gen,), n) for gen, n in stats["host_gc"]["collections"].items())),
    ("repro_host_gc_seconds_total", "Wall time spent inside host collector passes", "counter", (),
     "host_gc.seconds"),
)


class HostGcMeter:
    """A ``gc.callbacks`` hook: passes per generation and the time spent
    in them, process-wide, while it is installed.  The checker keeps the
    collector out of its own work (:mod:`repro.util.hostgc`); this is
    what the passes that still run — between batches, and over whatever
    else shares the process — cost."""

    def __init__(self) -> None:
        self.collections = [0, 0, 0]
        self.seconds = 0.0
        self._started = 0.0

    def __call__(self, phase: str, info: Dict[str, int]) -> None:
        # Passes never nest (the collector is not re-entrant) and run
        # under the GIL, so one start stamp is enough.
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.collections[info["generation"]] += 1
            self.seconds += time.perf_counter() - self._started

    def snapshot(self) -> Dict[str, Any]:
        return {
            "collections": {str(gen): n for gen, n in enumerate(self.collections)},
            "seconds": round(self.seconds, 6),
        }


class StatusView:
    """Snapshot, health verdict and Prometheus exposition of one daemon."""

    def __init__(
        self,
        ingest: IngestPipeline,
        sessions: SessionTable,
        edge: Callable[[], Dict[str, Any]],
        slow_batch_log: SlowBatchLog,
    ) -> None:
        self._config = ingest.config
        self._checker = ingest.checker
        self._ingest = ingest
        self._sessions = sessions
        #: The daemon's connection-edge facts: ``wire``, ``subscribers``,
        #: ``subscribers_shed``, ``connections``, ``backlog`` (size,
        #: capacity), ``shutting_down``.
        self._edge = edge
        self._slow_batch_log = slow_batch_log
        #: Installed into ``gc.callbacks`` by the daemon for as long as
        #: it runs.
        self.host_gc = HostGcMeter()
        #: ``(value, measured_at)`` cache for ``estimated_bytes`` — the
        #: deep-sizeof walk runs on the loop between kernel batches, so
        #: wire STATS and ``/metrics`` share one measurement per TTL
        #: window instead of stalling ingest per request.
        self._bytes_cache: Optional[Tuple[int, float]] = None

    def _estimated_bytes_cached(self) -> int:
        """The checker's deep-size estimate, cached for :data:`STATS_BYTES_TTL`.

        The measurement itself is O(resident state) and runs on the event
        loop, where the drain task checks; wire STATS requests and
        ``/metrics`` scrapes both land here, so one measurement per TTL
        window serves every consumer and a scrape loop cannot stall
        ingest.
        """
        cached = self._bytes_cache
        if cached is not None and time.monotonic() - cached[1] < STATS_BYTES_TTL:
            return cached[0]
        value = self._checker.estimated_bytes()
        self._bytes_cache = (value, time.monotonic())
        return value

    def stats(self, include_bytes: bool = True) -> _Stats:
        """Counters for the ``STATS`` request (and the CLI's summary).

        ``include_bytes=False`` skips ``estimated_bytes`` (a deep sizeof
        walk over all resident state — cached for :data:`STATS_BYTES_TTL`
        seconds, so repeated requests inside the window cost nothing) —
        the cheap mode for a monitoring poller on a hot daemon; the wire
        request opts out with ``{"type": "stats", "bytes": false}``.

        ``resident_txns`` counts arrivals the checker still indexes (one
        ``tid -> commit_ts`` entry each — it stores no transaction), and
        ``gc.evicted.txns`` the index entries GC cycles released; only
        ``versions`` and ``intervals`` are written to spill segments.
        ``ext`` is what stands between arrival and timeout: transactions
        with a tentative EXT verdict and the external reads indexed for
        re-checking.
        """
        config, checker, ingest = self._config, self._checker, self._ingest
        estimated_bytes = self._estimated_bytes_cached() if include_bytes else None
        kernel = checker.kernel_stats.as_dict()
        spill = checker.spill_store
        sizes = ingest.kernel_batch_size
        _counts, size_sum, cycles = sizes.snapshot()
        kernel["batch_size"] = {
            "count": cycles,
            "mean": round(size_sum / cycles, 1) if cycles else None,
            "p50": round(sizes.quantile(0.5), 1) if cycles else None,
            "p99": round(sizes.quantile(0.99), 1) if cycles else None,
        }
        edge = self._edge()
        return {
            "protocol": PROTOCOL_VERSION,
            "wire": edge["wire"],
            "checker": config.checker_kind,
            "level": config.level,
            "uptime_s": round(time.monotonic() - ingest.started_at, 3),
            "received": ingest.received,
            "processed": checker.processed,
            "queue_depth": ingest.queue.qsize(),
            "queue_high_water": ingest.queue.high_water,
            "queue_capacity": config.queue_capacity,
            "resident_txns": checker.resident_txn_count,
            "ext": {
                "pending_txns": checker.pending_ext_txns,
                "pending_reads": checker.pending_ext_reads,
            },
            "violations": len(checker.result.violations),
            "subscribers": edge["subscribers"],
            "subscribers_shed": edge["subscribers_shed"],
            "connections": edge["connections"],
            "sessions": self._sessions.snapshot(),
            "estimated_bytes": estimated_bytes,
            "ingest_errors": ingest.ingest_errors,
            "last_ingest_error": ingest.last_ingest_error,
            "throughput": ingest.throughput(),
            "kernel": kernel,
            "latency": ingest.latency.summary(),
            "gc": {
                "cycles": ingest.gc_cycles,
                "seconds": round(ingest.gc_seconds, 6),
                "threshold": config.gc_threshold,
                "pause": ingest.gc_pause.summary(),
                "evicted": dict(ingest.gc_evicted),
                "spill_bytes": spill.bytes_written if spill is not None else 0,
                "reloads": spill.reload_count if spill is not None else 0,
            },
            "host_gc": self.host_gc.snapshot(),
            "slow_batches": {
                "total": self._slow_batch_log.total,
                "recent": self._slow_batch_log.tail(3),
            },
        }

    def render_metrics(self) -> str:
        """Prometheus text of the pipeline's histograms and a fresh snapshot."""
        ingest = self._ingest
        # The push counter is exported here only: it never was a STATS key.
        stats = {**self.stats(True), "pushed_violations": ingest.pushed_violations}
        lines: List[str] = []
        for histogram in (ingest.latency, ingest.gc_pause, ingest.kernel_batch_size):
            histogram.render_into(lines)
        for name, help_text, kind, labelnames, read in _FAMILIES:
            if labelnames:
                samples = [("", dict(zip(labelnames, key)), value) for key, value in read(stats)]
            else:
                samples = [("", {}, _at(stats, read))]
            render_family(lines, name, help_text, kind, samples)
        return "\n".join(lines) + "\n"

    def health(self) -> Tuple[bool, Dict[str, Any]]:
        """Componentized liveness: ``(overall ok, JSON-ready detail)``.

        Never touches the checker: every input is either task state or
        a counter the loop thread already owns.  Components:

        - ``drain`` — the drain task has not died (a dead one means
          admitted transactions will never be checked, and acked
          producers wait for acks that never come);
        - ``backlog`` — the violation replay backlog has room (at
          capacity, late subscribers silently lose history);
        - ``queue`` — depth vs. capacity; reported, never failing: a
          full queue is backpressure doing its job;
        - ``ext_timer`` — with a finite EXT timeout, the idle poll task
          is alive and has polled recently; disabled (and healthy) on an
          infinite timeout;
        - ``resume_storm`` — session resumes inside the sliding
          :data:`RESUME_STORM_WINDOW_S` stay below
          :data:`RESUME_STORM_THRESHOLD` (a storm
          means clients are flapping, so latency expectations are off);
        """
        config, ingest = self._config, self._ingest
        edge = self._edge()
        now = time.monotonic()

        def age(stamp: Optional[float]) -> Optional[float]:
            return None if stamp is None else round(now - stamp, 3)

        def component(ok: bool, healthy: str, unhealthy: str, **facts: Any) -> Dict[str, Any]:
            return {"ok": ok, "detail": healthy if ok else unhealthy, **facts}

        backlog_size, backlog_cap = edge["backlog"]
        depth = ingest.queue.qsize()
        components = {
            "drain": component(
                ingest.drain_alive, "alive", "drain task is not running",
                last_batch_age_s=age(ingest.last_drain_at),
            ),
            "backlog": component(
                backlog_size < backlog_cap, "has room",
                "saturated — oldest replay entries are being dropped",
                size=backlog_size, capacity=backlog_cap,
            ),
            "queue": component(
                True, "backpressure engaged" if depth >= config.queue_capacity else "flowing", "",
                depth=depth, capacity=config.queue_capacity, high_water=ingest.queue.high_water,
            ),
        }

        if math.isfinite(config.timeout):
            last_poll = ingest.last_poll_at
            # Freshness bound: generous enough that one long drain batch
            # cannot flap the endpoint, tight enough that a wedged loop
            # is caught within seconds.  Before the first poll is due,
            # the daemon's own age stands in for the poll's.
            poll_interval = ingest_module.POLL_INTERVAL
            stale_after = max(10 * poll_interval, 5.0)
            fresh = now - (ingest.started_at if last_poll is None else last_poll) < stale_after
            components["ext_timer"] = component(
                ingest.tick_alive and fresh, "polling",
                "polls are stale" if ingest.tick_alive else "tick task is not running",
                poll_age_s=age(last_poll), poll_interval_s=poll_interval,
            )
        else:
            components["ext_timer"] = component(True, "disabled (infinite EXT timeout)", "")

        recent_resumes = self._sessions.recent_resumes(now)
        summary = f"{recent_resumes} session resumes in the last {RESUME_STORM_WINDOW_S:g}s"
        components["resume_storm"] = component(
            recent_resumes < RESUME_STORM_THRESHOLD,
            summary, summary + " — clients are flapping",
            recent_resumes=recent_resumes, window_s=RESUME_STORM_WINDOW_S,
            threshold=RESUME_STORM_THRESHOLD,
        )

        ok = all(entry["ok"] for entry in components.values())
        return ok, {
            "status": "ok" if ok else "unhealthy",
            "checker": config.checker_kind,
            "uptime_s": round(now - ingest.started_at, 3),
            "shutting_down": edge["shutting_down"],
            "components": components,
        }
