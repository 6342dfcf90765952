"""Observability subsystem tests: metrics registry, HTTP sidecar,
health degradation, stats caching, and the metrics-on/off differential.

The differential class is the acceptance claim for the whole surface:
instrumentation (stage timing, slow-batch tracing, latency histograms)
must be verdict-neutral — enabling every knob changes no violation, for
the plain, SER, and sharded checkers alike.
"""

from __future__ import annotations

import asyncio
import io
import json
import time
from pathlib import Path

import pytest

from repro.core.aion import Aion, AionConfig
from repro.core.aion_ser import AionSer
from repro.core.reference import normalize_violations
from repro.core.sharded import ShardedAion
from repro.histories.anomalies import ANOMALY_CATALOG
from repro.obs import Counter, Gauge, Histogram, HttpSidecar, MetricsRegistry, SlowBatchLog
from repro.service import (
    CheckerClient,
    ServiceConfig,
    ServiceThread,
    transactions_in_commit_order,
)
from repro.service.client import http_get_json, http_get_text
from repro.workloads.generator import generate_default_history
from repro.workloads.spec import WorkloadSpec

INF = AionConfig(timeout=float("inf"))


def anomaly_txns(name: str):
    return transactions_in_commit_order(ANOMALY_CATALOG[name].build())


# ----------------------------------------------------------------------
# Registry: counters, gauges, histogram math, Prometheus text
# ----------------------------------------------------------------------

class TestRegistry:
    def test_counter_monotonic(self):
        counter = Counter("c_total", "help")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)
        counter.set_total(42)  # scrape-time mirror of an external int
        assert counter.value == 42

    def test_gauge_both_ways(self):
        gauge = Gauge("g", "help")
        gauge.set(10)
        gauge.inc(2)
        gauge.dec(5)
        assert gauge.value == 7

    def test_labels_cached_and_validated(self):
        counter = Counter("c_total", "help", labelnames=("kind",))
        child = counter.labels("a")
        assert counter.labels("a") is child
        assert counter.labels("b") is not child
        with pytest.raises(ValueError):
            counter.labels("a", "extra")
        with pytest.raises(ValueError):
            Counter("plain_total", "help").labels("a")

    def test_duplicate_registration_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "help")
        with pytest.raises(ValueError):
            registry.gauge("x_total", "help")

    def test_histogram_le_is_inclusive(self):
        hist = Histogram("h_seconds", "help", buckets=(0.1, 1.0))
        hist.observe(0.1)   # exactly on a bound -> that bound's bucket
        hist.observe(0.5)
        hist.observe(5.0)   # above every bound -> +Inf only
        counts, total_sum, total = hist.snapshot()
        assert counts == [1, 1, 1]
        assert total == 3
        assert total_sum == pytest.approx(5.6)

    def test_histogram_weighted_observe(self):
        hist = Histogram("h_seconds", "help", buckets=(1.0,))
        hist.observe(0.5, count=10)
        counts, total_sum, total = hist.snapshot()
        assert counts == [10, 0]
        assert total == 10
        assert total_sum == pytest.approx(5.0)

    def test_histogram_rejects_bad_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", "help", buckets=())
        with pytest.raises(ValueError):
            Histogram("h", "help", buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", "help", buckets=(1.0, 1.0))

    def test_quantile_interpolation(self):
        hist = Histogram("h_seconds", "help", buckets=(1.0, 2.0))
        hist.observe(0.5, count=2)
        hist.observe(1.5, count=2)
        assert hist.quantile(0.5) == pytest.approx(1.0)
        assert hist.quantile(0.75) == pytest.approx(1.5)

    def test_quantile_empty_and_overflow(self):
        hist = Histogram("h_seconds", "help", buckets=(1.0, 2.0))
        assert hist.quantile(0.5) is None
        hist.observe(99.0, count=4)  # all mass in +Inf
        # Clamped to the highest finite bound, as histogram_quantile does.
        assert hist.quantile(0.99) == pytest.approx(2.0)

    def test_summary_shape(self):
        hist = Histogram("h_seconds", "help", buckets=(1.0,))
        assert hist.summary() == {
            "count": 0, "sum_s": 0.0, "p50_s": None, "p95_s": None, "p99_s": None,
        }
        hist.observe(0.5)
        summary = hist.summary()
        assert summary["count"] == 1
        assert summary["p99_s"] is not None

    def test_prometheus_golden_render(self):
        registry = MetricsRegistry()
        jobs = registry.counter("demo_jobs_total", "Jobs processed", labelnames=("kind",))
        jobs.labels("a").inc(2)
        jobs.labels("b").inc()
        registry.gauge("demo_depth", "Queue depth").set(7)
        latency = registry.histogram("demo_seconds", "Latency", buckets=(0.1, 1.0))
        latency.observe(0.1)
        latency.observe(0.5)
        latency.observe(5.0)
        assert registry.render() == (
            "# HELP demo_jobs_total Jobs processed\n"
            "# TYPE demo_jobs_total counter\n"
            'demo_jobs_total{kind="a"} 2\n'
            'demo_jobs_total{kind="b"} 1\n'
            "# HELP demo_depth Queue depth\n"
            "# TYPE demo_depth gauge\n"
            "demo_depth 7\n"
            "# HELP demo_seconds Latency\n"
            "# TYPE demo_seconds histogram\n"
            'demo_seconds_bucket{le="0.1"} 1\n'
            'demo_seconds_bucket{le="1"} 2\n'
            'demo_seconds_bucket{le="+Inf"} 3\n'
            "demo_seconds_sum 5.6\n"
            "demo_seconds_count 3\n"
        )

    def test_label_value_escaping(self):
        registry = MetricsRegistry()
        counter = registry.counter("esc_total", "h", labelnames=("v",))
        counter.labels('a"b\\c\nd').inc()
        text = registry.render()
        assert 'esc_total{v="a\\"b\\\\c\\nd"} 1\n' in text

    def test_labeled_histogram_renders_per_child(self):
        registry = MetricsRegistry()
        hist = registry.histogram(
            "stage_seconds", "h", buckets=(1.0,), labelnames=("stage",)
        )
        hist.labels("route").observe(0.5)
        hist.labels("probe").observe(2.0)
        text = registry.render()
        assert 'stage_seconds_bucket{stage="route",le="1"} 1' in text
        assert 'stage_seconds_bucket{stage="probe",le="+Inf"} 1' in text
        assert 'stage_seconds_count{stage="route"} 1' in text


# ----------------------------------------------------------------------
# Slow-batch trace log
# ----------------------------------------------------------------------

class TestSlowBatchLog:
    def test_ring_and_stream_mirror(self):
        stream = io.StringIO()
        log = SlowBatchLog(keep=2, stream=stream)
        for index in range(3):
            log.record({"seconds": index})
        assert log.total == 3
        assert len(log) == 2  # ring dropped the oldest
        tail = log.tail()
        assert [entry["seconds"] for entry in tail] == [1, 2]
        assert [entry["seq"] for entry in tail] == [2, 3]
        lines = stream.getvalue().strip().splitlines()
        assert len(lines) == 3
        assert json.loads(lines[0])["slow_batch"]["seconds"] == 0

    def test_broken_stream_never_raises(self):
        class Broken(io.StringIO):
            def write(self, _s):
                raise OSError("stderr is gone")

        log = SlowBatchLog(stream=Broken())
        log.record({"seconds": 1})  # must not raise
        assert log.total == 1


# ----------------------------------------------------------------------
# HTTP sidecar (direct, no daemon)
# ----------------------------------------------------------------------

class TestHttpSidecar:
    def test_routing_and_error_paths(self):
        async def scenario():
            async def hello():
                return 200, "text/plain", b"hi"

            async def boom():
                raise RuntimeError("kaput")

            sidecar = HttpSidecar("127.0.0.1", 0, {"/hello": hello, "/boom": boom})
            await sidecar.start()
            host, port = sidecar.address

            async def raw_request(payload: bytes) -> bytes:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(payload)
                await writer.drain()
                data = await reader.read()
                writer.close()
                return data

            ok = await raw_request(b"GET /hello HTTP/1.1\r\nHost: x\r\n\r\n")
            assert ok.startswith(b"HTTP/1.1 200 OK") and ok.endswith(b"hi")
            assert b"Connection: close" in ok
            query = await raw_request(b"GET /hello?x=1 HTTP/1.1\r\n\r\n")
            assert query.startswith(b"HTTP/1.1 200")
            missing = await raw_request(b"GET /nope HTTP/1.1\r\n\r\n")
            assert missing.startswith(b"HTTP/1.1 404")
            assert b"/hello" in missing  # 404 lists the route table
            post = await raw_request(b"POST /hello HTTP/1.1\r\n\r\n")
            assert post.startswith(b"HTTP/1.1 405")
            malformed = await raw_request(b"garbage\r\n\r\n")
            assert malformed.startswith(b"HTTP/1.1 400")
            failed = await raw_request(b"GET /boom HTTP/1.1\r\n\r\n")
            assert failed.startswith(b"HTTP/1.1 500")
            assert b"kaput" in failed
            sidecar.close()

        asyncio.run(scenario())


# ----------------------------------------------------------------------
# Daemon endpoints: /metrics, /health, /stats
# ----------------------------------------------------------------------

@pytest.fixture
def start_service():
    handles = []

    def _start(**kwargs):
        kwargs.setdefault("port", 0)
        kwargs.setdefault("http_port", 0)
        kwargs.setdefault("timeout", float("inf"))
        handle = ServiceThread(ServiceConfig(**kwargs)).start()
        handles.append(handle)
        return handle

    yield _start
    for handle in handles:
        handle.stop()


def submit(handle, txns):
    host, port = handle.tcp_address
    with CheckerClient(host, port) as client:
        client.connect()
        client.submit_many(txns)
        return client.finalize()


class TestDaemonEndpoints:
    def test_metrics_exposition(self, start_service):
        handle = start_service(kernel_sample_every=1, slow_batch_ms=1e-6)
        submit(handle, anomaly_txns("dirty-read"))
        host, port = handle.http_address
        status, body = http_get_text(host, port, "/metrics")
        assert status == 200
        for family in (
            "repro_ingested_txns_total",
            "repro_processed_txns_total",
            "repro_violations_total",
            "repro_queue_depth_txns",
            "repro_resident_txns",
            "repro_resident_bytes",
            "repro_kernel_batches_total",
            "repro_kernel_slow_batches_total",
            "repro_ext_pending_reads",
            "repro_gc_spill_bytes_total",
            "repro_gc_reloads_total",
            "repro_gc_evicted_versions_total",
            "repro_gc_evicted_intervals_total",
            "repro_gc_evicted_txns_total",
            "repro_gc_pause_seconds_bucket",
            "repro_gc_pause_seconds_count",
            "repro_submit_to_verdict_seconds_bucket",
            "repro_submit_to_verdict_seconds_count",
        ):
            assert family in body, family
        lines = dict(
            line.rsplit(" ", 1)
            for line in body.splitlines()
            if not line.startswith("#") and "{" not in line
        )
        assert int(lines["repro_ingested_txns_total"]) == 3
        assert int(lines["repro_violations_total"]) == 1
        assert float(lines["repro_kernel_timed_batches_total"]) >= 1
        assert 'repro_wire_frames_total{codec="v2",direction="in"}' in body
        assert 'repro_kernel_stage_seconds_total{stage="route"}' in body
        assert 'repro_kernel_ops_total{stage="probe_reads"}' in body

    @pytest.mark.parametrize("kind", ["aion", "aion-ser", "sharded"])
    def test_gc_metrics_count_what_moved(self, start_service, kind):
        """The GC families mirror GcReport/SpillStore: after cycles ran,
        /metrics and STATS["gc"] agree on cycles, pauses, evictions and
        spill bytes."""
        extra = {"aion": {}, "aion-ser": {"level": "ser"}, "sharded": {"n_shards": 2}}[kind]
        handle = start_service(gc_threshold=40, **extra)
        history = generate_default_history(
            WorkloadSpec(n_sessions=4, n_transactions=300, ops_per_txn=6, n_keys=30, seed=5)
        )
        host, port = handle.tcp_address
        with CheckerClient(host, port) as client:
            client.connect()
            txns = history.by_commit_ts()
            for offset in range(0, len(txns), 50):
                client.submit_many(txns[offset : offset + 50])
            client.finalize()
            gc = client.stats()["gc"]
        assert gc["cycles"] >= 2
        assert gc["pause"]["count"] == gc["cycles"]
        assert gc["evicted"]["txns"] >= 200
        assert gc["evicted"]["versions"] > 0
        assert (gc["evicted"]["intervals"] > 0) == (kind != "aion-ser")
        assert gc["spill_bytes"] > 0
        assert gc["reloads"] == 0
        status, body = http_get_text(*handle.http_address, "/metrics")
        assert status == 200
        lines = dict(
            line.rsplit(" ", 1)
            for line in body.splitlines()
            if not line.startswith("#") and "{" not in line
        )
        assert int(lines["repro_gc_cycles_total"]) == gc["cycles"]
        assert int(lines["repro_gc_pause_seconds_count"]) == gc["cycles"]
        assert int(lines["repro_gc_spill_bytes_total"]) == gc["spill_bytes"]
        assert int(lines["repro_gc_reloads_total"]) == 0
        for name, total in gc["evicted"].items():
            assert int(lines[f"repro_gc_evicted_{name}_total"]) == total

    def test_metrics_per_shard_gauges(self, start_service):
        handle = start_service(n_shards=3, kernel_sample_every=1)
        submit(handle, anomaly_txns("lost-update"))
        host, port = handle.http_address
        status, body = http_get_text(host, port, "/metrics")
        assert status == 200
        assert 'repro_shard_versions{shard="0"}' in body
        assert 'repro_shard_intervals{shard="2"}' in body

    def test_health_ok_and_stats_endpoint(self, start_service):
        handle = start_service()
        host, port = handle.http_address
        status, health = http_get_json(host, port, "/health")
        assert status == 200
        assert health["status"] == "ok"
        assert set(health["components"]) == {
            "drain", "backlog", "queue", "ext_timer", "resume_storm",
        }
        assert all(component["ok"] for component in health["components"].values())
        # Infinite EXT timeout -> the timer component reports disabled.
        assert "disabled" in health["components"]["ext_timer"]["detail"]
        status, stats = http_get_json(host, port, "/stats")
        assert status == 200
        assert stats["checker"] == "aion"
        assert "queue_high_water" in stats

    def test_health_resume_storm_component(self, start_service):
        # The window and threshold are constants; thirty resumes inside
        # the window flip the component, and with it the endpoint.
        from repro.service.sessions import RESUME_STORM_THRESHOLD, RESUME_STORM_WINDOW_S

        handle = start_service()
        host, port = handle.http_address
        _status, health = http_get_json(host, port, "/health")
        storm = health["components"]["resume_storm"]
        assert (storm["window_s"], storm["threshold"]) == (10.0, 30)
        assert (RESUME_STORM_WINDOW_S, RESUME_STORM_THRESHOLD) == (10.0, 30)
        assert storm["ok"] and storm["recent_resumes"] == 0
        first = CheckerClient(*handle.tcp_address, auto_resume=True)
        first.connect()
        first.close()
        for _ in range(RESUME_STORM_THRESHOLD):
            again = CheckerClient(*handle.tcp_address, auto_resume=True)
            again.session_token = first.session_token
            again.connect()
            assert again.session_resumed
            again.close()
        status, health = http_get_json(host, port, "/health")
        assert status == 503
        storm = health["components"]["resume_storm"]
        assert not storm["ok"] and storm["recent_resumes"] == RESUME_STORM_THRESHOLD
        assert "flapping" in storm["detail"]

    def test_health_ext_timer_component_when_finite(self, start_service):
        handle = start_service(timeout=5.0, poll_interval=0.05)
        deadline = time.monotonic() + 5.0
        host, port = handle.http_address
        while time.monotonic() < deadline:
            _status, health = http_get_json(host, port, "/health")
            if health["components"]["ext_timer"].get("poll_age_s") is not None:
                break
            time.sleep(0.05)
        assert health["components"]["ext_timer"]["ok"]
        assert health["components"]["ext_timer"]["detail"] == "polling"

    def test_health_503_when_drain_task_dies(self, start_service):
        handle = start_service()
        service = handle.service
        handle._loop.call_soon_threadsafe(service._ingest._drain_task.cancel)
        host, port = handle.http_address
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            status, health = http_get_json(host, port, "/health")
            if status == 503:
                break
            time.sleep(0.02)
        assert status == 503
        assert health["status"] == "unhealthy"
        assert not health["components"]["drain"]["ok"]

    def test_health_503_when_replay_backlog_saturates(self, start_service):
        handle = start_service()
        service = handle.service
        backlog = service._violation_log
        backlog.extend({"type": "violation"} for _ in range(backlog.maxlen))
        host, port = handle.http_address
        status, health = http_get_json(host, port, "/health")
        assert status == 503
        assert not health["components"]["backlog"]["ok"]
        assert "saturated" in health["components"]["backlog"]["detail"]


# ----------------------------------------------------------------------
# The exported surface is pinned: /metrics catalog and stats() key set
# ----------------------------------------------------------------------

GOLDEN_CATALOG = Path(__file__).parent / "data" / "service_catalog_golden.json"

#: What this surface gained since the golden was recorded (at the commit
#: before ``CheckerService`` was carved up, by running ``fresh_catalog``
#: against that commit's ``src/``) — everything else must be identical.
#: The two ``repro_host_gc_*`` families and the ``host_gc`` block were
#: written into the golden itself when they were added, as were
#: ``repro_ext_pending_reads`` / ``ext.pending_{txns,reads}`` in the
#: change that retired ``repro_gc_debt`` / ``gc.debt``.
ADDED_FAMILIES = {"repro_kernel_batch_size", "repro_subscribers_shed_total"}
ADDED_STATS_KEYS = {
    "subscribers_shed",
    "kernel.batch_size.count",
    "kernel.batch_size.mean",
    "kernel.batch_size.p50",
    "kernel.batch_size.p99",
}
#: What this surface lost since: the interval scan counters, which only
#: a key promoted to the chunked interval index ever advanced, went with
#: that representation; the per-shard deferred read removals went with
#: the deferral (a finalized read now leaves its shard at once); the
#: ndjson codec's ``codec="v1"`` wire children and ``wire.v1`` counters,
#: and the ``protocols`` list, went with that codec.
RETIRED_SAMPLE = 'codec="v1"'
RETIRED_FAMILIES = {
    "repro_interval_scan_steps_total",
    "repro_interval_gc_scan_steps_total",
    "repro_shard_pending_removals",
}
RETIRED_STATS_KEYS = {
    "interval_scan_steps",
    "interval_gc_scan_steps",
    "shards[].scan_steps",
    "shards[].gc_scan_steps",
    "shards[].pending_removals",
    "protocols",
    "wire.v1.bytes_in",
    "wire.v1.bytes_out",
    "wire.v1.decode_errors",
    "wire.v1.frames_in",
    "wire.v1.frames_out",
}


def _key_paths(value, prefix=""):
    if isinstance(value, dict):
        for key, inner in value.items():
            yield from _key_paths(inner, f"{prefix}.{key}" if prefix else key)
    elif isinstance(value, list) and value and isinstance(value[0], dict):
        yield from _key_paths(value[0], prefix + "[]")
    else:
        yield prefix


def fresh_catalog(handle):
    """A fresh daemon's exposition with the sample values cut off (every
    ``# HELP`` / ``# TYPE`` line, every sample name with its label set,
    in exposition order) and the sorted key paths of its ``stats()``."""
    status, body = http_get_text(*handle.http_address, "/metrics")
    assert status == 200
    lines = [
        line if line.startswith("#") else line.rsplit(" ", 1)[0] for line in body.splitlines()
    ]
    return {"metrics": lines, "stats_keys": sorted(_key_paths(handle.service.stats()))}


def _family_in(line, families):
    name = line.split(" ")[2] if line.startswith("#") else line.split("{")[0]
    return any(name == family or name.startswith(family + "_") for family in families)


def _retired(line):
    return _family_in(line, RETIRED_FAMILIES) or RETIRED_SAMPLE in line


class TestExportedCatalogGolden:
    @pytest.mark.parametrize("kind", ["single", "sharded_x2"])
    def test_catalog_matches_the_recorded_one(self, start_service, kind):
        golden = json.loads(GOLDEN_CATALOG.read_text())[kind]
        handle = start_service(**({"n_shards": 2} if kind == "sharded_x2" else {}))
        now = fresh_catalog(handle)
        for family in ADDED_FAMILIES:
            assert f"# TYPE {family} " in "\n".join(now["metrics"])
        assert not any(_retired(line) for line in now["metrics"])
        assert [
            line for line in now["metrics"] if not _family_in(line, ADDED_FAMILIES)
        ] == [line for line in golden["metrics"] if not _retired(line)]
        assert set(now["stats_keys"]) - set(golden["stats_keys"]) == ADDED_STATS_KEYS
        golden_keys = set(golden["stats_keys"])
        assert golden_keys - set(now["stats_keys"]) == RETIRED_STATS_KEYS & golden_keys


# ----------------------------------------------------------------------
# STATS payload satellites: byte-cache TTL, high-water
# ----------------------------------------------------------------------

class TestStatsExtras:
    def test_estimated_bytes_cached_for_ttl(self, start_service):
        handle = start_service(http_port=None, stats_bytes_ttl=60.0)
        service = handle.service
        real = service.checker.estimated_bytes
        calls = []

        def counting():
            calls.append(1)
            return real()

        service.checker.estimated_bytes = counting
        first = service.stats(include_bytes=True)["estimated_bytes"]
        second = service.stats(include_bytes=True)["estimated_bytes"]
        assert len(calls) == 1  # second hit served from the cache
        assert first == second
        service.stats(include_bytes=False)
        assert len(calls) == 1  # cheap mode never measures

    def test_zero_ttl_disables_the_cache(self, start_service):
        handle = start_service(http_port=None, stats_bytes_ttl=0.0)
        service = handle.service
        real = service.checker.estimated_bytes
        calls = []

        def counting():
            calls.append(1)
            return real()

        service.checker.estimated_bytes = counting
        service.stats(include_bytes=True)
        service.stats(include_bytes=True)
        assert len(calls) == 2

    def test_queue_high_water_and_scan_counters(self, start_service):
        handle = start_service()
        submit(handle, anomaly_txns("dirty-read"))
        host, port = handle.tcp_address
        with CheckerClient(host, port) as client:
            client.connect()
            stats = client.stats()
        assert stats["queue_high_water"] >= 1
        assert stats["queue_high_water"] <= stats["queue_capacity"]
        assert stats["ext"] == {"pending_txns": 0, "pending_reads": 0}  # finalized by submit()
        assert stats["latency"]["count"] >= 1
        assert stats["slow_batches"]["total"] == 0

    def test_slow_batches_surface_in_stats(self, start_service):
        handle = start_service(kernel_sample_every=1, slow_batch_ms=1e-6)
        handle.service.slow_batch_log._stream = None  # keep test output clean
        submit(handle, anomaly_txns("dirty-read"))
        stats = handle.service.stats(include_bytes=False)
        assert stats["slow_batches"]["total"] >= 1
        recent = stats["slow_batches"]["recent"]
        assert recent, "expected at least one retained trace"
        record = recent[-1]
        assert record["checker"] == "aion"
        assert record["batch_txns"] >= 1
        assert record["seconds"] >= 0
        assert "top_keys" in record

    def test_host_collector_is_metered_while_the_daemon_runs(self, start_service, capsys):
        import gc

        from repro.cli import main

        handle = start_service()
        meter = handle.service._status.host_gc
        assert gc.callbacks.count(meter) == 1
        gc.collect()
        gc.collect(0)
        host, port = handle.tcp_address
        with CheckerClient(host, port) as client:
            block = client.stats()["host_gc"]
        assert block["collections"]["2"] >= 1 and block["collections"]["0"] >= 1
        assert block["seconds"] > 0
        _, body = http_get_text(*handle.http_address, "/metrics")
        samples = dict(line.rsplit(" ", 1) for line in body.splitlines() if line[:1] != "#")
        assert int(samples['repro_host_gc_collections_total{generation="2"}']) >= 1
        assert float(samples["repro_host_gc_seconds_total"]) > 0
        assert main(["stats", "--host", host, "--port", str(port)]) == 0
        assert "host gc      :" in capsys.readouterr().out
        handle.stop()
        assert meter not in gc.callbacks


# ----------------------------------------------------------------------
# Instrumentation is verdict-neutral (metrics on == metrics off)
# ----------------------------------------------------------------------

def _make_checker(kind):
    if kind == "aion":
        return Aion(INF, clock=lambda: 0.0)
    if kind == "ser":
        return AionSer(INF, clock=lambda: 0.0)
    assert kind == "sharded"
    return ShardedAion(INF, n_shards=3, clock=lambda: 0.0)


def _run_batched(checker, txns, batch_size=4):
    for offset in range(0, len(txns), batch_size):
        checker.receive_many(txns[offset : offset + batch_size])
    return normalize_violations(checker.finalize())


class TestInstrumentationDifferential:
    @pytest.mark.parametrize("kind", ["aion", "ser", "sharded"])
    @pytest.mark.parametrize(
        "name", ["dirty-read", "lost-update", "write-skew", "long-fork"]
    )
    def test_verdicts_identical_with_instrumentation(self, kind, name):
        txns = anomaly_txns(name)
        plain = _make_checker(kind)
        baseline = _run_batched(plain, txns)

        instrumented = _make_checker(kind)
        log = SlowBatchLog(stream=None)
        stats = instrumented.kernel_stats
        stats.sample_every = 1
        stats.slow_threshold = 1e-9  # every batch traces
        stats.on_slow_batch = log.record
        observed = _run_batched(instrumented, txns)

        assert observed == baseline
        assert stats.timed_batches == stats.batches
        assert stats.batch_seconds > 0.0
        assert stats.slow_batches == stats.batches
        assert log.total == stats.batches
        record = log.tail(1)[0]
        assert record["batch_txns"] >= 1
        assert record["seconds"] >= 0

    def test_sampling_cadence(self):
        checker = _make_checker("aion")
        stats = checker.kernel_stats
        stats.sample_every = 2
        txns = anomaly_txns("dirty-read")
        for txn in txns + txns[:1]:  # 4 single-transaction batches
            checker.receive_many([txn])
        assert stats.batches == 4
        assert stats.timed_batches == 2  # batches 0 and 2 sampled

    def test_kernel_op_counters_unchanged_by_timing(self):
        txns = anomaly_txns("lost-update")
        plain = _make_checker("aion")
        _run_batched(plain, txns, batch_size=2)
        timed = _make_checker("aion")
        timed.kernel_stats.sample_every = 1
        _run_batched(timed, txns, batch_size=2)
        baseline = plain.kernel_stats.as_dict()
        observed = timed.kernel_stats.as_dict()
        for field in (
            "batches", "txns", "route_ops", "probe_reads", "probe_writes",
            "verdict_tracks", "verdict_reevals", "verdict_conflicts",
        ):
            assert observed[field] == baseline[field], field

    def test_failing_slow_batch_hook_is_contained(self):
        checker = _make_checker("aion")
        stats = checker.kernel_stats
        stats.slow_threshold = 1e-9

        def exploding(_trace):
            raise RuntimeError("observer bug")

        stats.on_slow_batch = exploding
        result = _run_batched(checker, anomaly_txns("dirty-read"))
        assert result  # verdict still produced
        assert stats.slow_batches >= 1

    def test_shard_stats_rows(self):
        checker = _make_checker("sharded")
        try:
            checker.receive_many(anomaly_txns("lost-update"))
            rows = checker.shard_stats()
            assert len(rows) == 3
            for row in rows:
                assert set(row) >= {
                    "shard", "versions", "intervals", "ext_reads", "last_batch_commands",
                }
            assert sum(row["versions"] for row in rows) > 0
        finally:
            checker.close()

    def test_sharded_slow_batch_record_and_routed_op_counts(self):
        """The slow-batch record keeps its sharded identity and per-shard
        load, gains the ``top_keys`` of the single-shard record, and
        ``last_batch_commands`` counts the ops routed to each shard."""
        txns = anomaly_txns("lost-update")
        checker = _make_checker("sharded")
        try:
            stats = checker.kernel_stats
            stats.slow_threshold = 1e-9
            traces = []
            stats.on_slow_batch = traces.append
            checker.receive_many(txns)
            (record,) = traces
            assert record["checker"] == "sharded-aion"
            routed = [row["last_batch_commands"] for row in checker.shard_stats()]
            assert record["shard_commands"] == routed
            assert sum(routed) == record["reads"] + record["writes"]
            assert sum(routed) == stats.probe_reads + stats.probe_writes > 0
            assert record["top_keys"] and sum(n for _, n in record["top_keys"]) <= sum(routed)
            assert record["distinct_keys"] >= len(record["top_keys"])
        finally:
            checker.close()
