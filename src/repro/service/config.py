"""Configuration for the checker daemon.

One :class:`ServiceConfig` fixes both *where* the daemon listens (TCP,
unix socket, or both) and *what* it runs behind the wire: the isolation
level, shard count, EXT timeout, ingest-queue bound, and drain batch
size.  :meth:`ServiceConfig.build_checker` constructs the matching
checker — plain :class:`~repro.core.aion.Aion` for single-shard SI,
:class:`~repro.core.aion_ser.AionSer` for SER, and
:class:`~repro.core.sharded.ShardedAion` when sharding is requested.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, Union

if TYPE_CHECKING:
    from repro.core.aion import Aion
    from repro.core.aion_ser import AionSer
    from repro.core.sharded import ShardedAion

__all__ = ["ServiceConfig"]

OnlineCheckerT = Union["Aion", "AionSer", "ShardedAion"]


@dataclass
class ServiceConfig:
    """Tunables of one daemon instance.

    ``port=0`` binds an ephemeral TCP port (read it back from
    ``CheckerService.tcp_address``); ``port=None`` disables TCP.  At
    least one of TCP and ``unix_path`` must be enabled.

    ``queue_capacity`` bounds the ingest queue in *transactions*; a full
    queue stops the daemon from reading further submissions, which
    surfaces to producers as TCP backpressure rather than unbounded
    server-side buffering.  ``batch_size`` caps how many queued
    transactions one drain cycle hands to ``receive_many``.

    ``gc_threshold`` (in resident transactions) enables the daemon's
    between-batch garbage collection, sparing the ``gc_keep_recent``
    newest residents per cycle; 0 disables GC entirely.
    ``gc_keep_recent=None`` derives half the threshold — and an explicit
    value at or above the threshold is rejected, because GC would then
    never find an eligible resident (a silent no-op).
    """

    host: str = "127.0.0.1"
    port: Optional[int] = 0
    unix_path: Optional[Union[str, Path]] = None
    level: str = "si"
    n_shards: int = 1
    timeout: float = 5.0
    queue_capacity: int = 10_000
    batch_size: int = 500
    gc_threshold: int = 0
    gc_keep_recent: Optional[int] = None
    #: Seconds between idle polls of the checker's EXT timer queue.  A
    #: finite ``timeout`` arms real-clock deadlines that must fire even
    #: when no transactions are arriving; the daemon polls at this
    #: cadence so due verdicts are pushed from a quiet wire too.
    poll_interval: float = 0.5
    #: Highest wire protocol the daemon offers.  ``"v2"`` (the default)
    #: advertises the binary frame codec while still accepting ndjson on
    #: the same port — the reader sniffs each message's codec from its
    #: first byte.  ``"v1"`` pins the daemon to ndjson only: v2-capable
    #: clients see ``protocols: [1]`` in the welcome and fall back.
    protocol: str = "v2"
    #: TCP port of the HTTP observability sidecar (``/metrics``,
    #: ``/health``, ``/stats``); 0 binds an ephemeral port (read it back
    #: from ``CheckerService.http_address``), ``None`` (the default)
    #: disables the sidecar entirely.
    http_port: Optional[int] = None
    #: Seconds the ``deep_sizeof`` byte estimate stays cached.  Wire
    #: STATS requests and ``/metrics`` scrapes share the cached figure so
    #: a scrape loop cannot stall ingest by re-walking the checker's
    #: structures on the event loop on every request; 0 disables the
    #: cache (every request re-measures).
    stats_bytes_ttl: float = 2.0
    #: Sample per-stage kernel wall times on every Nth drained batch
    #: (``KernelStats.sample_every``); 0 disables stage timing.  The
    #: default keeps the hot path within bench noise while still feeding
    #: the stage-seconds counters on ``/metrics``.
    kernel_sample_every: int = 16
    #: Wall-time threshold in *milliseconds* above which one
    #: ``receive_many`` call is traced as a slow batch (structured record
    #: to stderr + ring buffer); ``None`` disables the trace.
    slow_batch_ms: Optional[float] = None
    #: Sliding window (seconds) over which session resumes are counted
    #: for the ``resume_storm`` health component.
    resume_storm_window: float = 10.0
    #: Session resumes inside one window at which ``/health`` flips the
    #: ``resume_storm`` component unhealthy — reconnect churn at this
    #: rate means clients are flapping (a dying daemon peer, a broken
    #: network path, or a retry loop without backoff), and verdict
    #: latency guarantees no longer hold.
    resume_storm_threshold: int = 30

    def validate(self) -> None:
        if self.port is None and self.unix_path is None:
            raise ValueError("enable at least one listener (TCP port or unix_path)")
        if self.level not in ("si", "ser"):
            raise ValueError(f"level must be 'si' or 'ser', got {self.level!r}")
        if self.n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if self.n_shards > 1 and self.level != "si":
            raise ValueError("sharding requires level 'si'")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.gc_threshold < 0:
            raise ValueError("gc_threshold must be >= 0")
        if self.poll_interval <= 0:
            raise ValueError("poll_interval must be positive")
        if self.protocol not in ("v1", "v2"):
            raise ValueError(f"protocol must be 'v1' or 'v2', got {self.protocol!r}")
        if self.http_port is not None and not 0 <= self.http_port <= 65535:
            raise ValueError("http_port must be in [0, 65535]")
        if self.stats_bytes_ttl < 0:
            raise ValueError("stats_bytes_ttl must be >= 0")
        if self.kernel_sample_every < 0:
            raise ValueError("kernel_sample_every must be >= 0")
        if self.slow_batch_ms is not None and self.slow_batch_ms <= 0:
            raise ValueError("slow_batch_ms must be positive when set")
        if self.resume_storm_window <= 0:
            raise ValueError("resume_storm_window must be positive")
        if self.resume_storm_threshold < 1:
            raise ValueError("resume_storm_threshold must be >= 1")
        if self.gc_keep_recent is not None:
            if self.gc_keep_recent < 0:
                raise ValueError("gc_keep_recent must be >= 0")
            if 0 < self.gc_threshold <= self.gc_keep_recent:
                raise ValueError(
                    "gc_keep_recent must be below gc_threshold, or GC can "
                    "never collect anything"
                )

    @property
    def effective_gc_keep_recent(self) -> int:
        """The keep-recent bound GC actually uses (derived when unset)."""
        if self.gc_keep_recent is not None:
            return self.gc_keep_recent
        return self.gc_threshold // 2 if self.gc_threshold > 0 else 2000

    @property
    def checker_kind(self) -> str:
        if self.n_shards > 1:
            return f"sharded-aion-x{self.n_shards}"
        return "aion" if self.level == "si" else "aion-ser"

    def build_checker(self, *, clock: Optional[Callable[[], float]] = None) -> OnlineCheckerT:
        """Construct the configured online checker.

        Only the module of the kind built is imported, so an SI daemon
        never compiles ``aion_ser`` or ``sharded``.
        """
        from repro.core.aion import Aion, AionConfig

        self.validate()
        aion_config = AionConfig(timeout=self.timeout)
        if self.n_shards > 1:
            from repro.core.sharded import ShardedAion

            return ShardedAion(aion_config, n_shards=self.n_shards, clock=clock)
        if self.level == "si":
            return Aion(aion_config, clock=clock)
        from repro.core.aion_ser import AionSer

        return AionSer(aion_config, clock=clock)
