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

from typing import TYPE_CHECKING, Callable, Optional, Union

if TYPE_CHECKING:
    from pathlib import Path

    from repro.core.aion import Aion
    from repro.core.aion_ser import AionSer
    from repro.core.sharded import ShardedAion

__all__ = ["ServiceConfig"]

OnlineCheckerT = Union["Aion", "AionSer", "ShardedAion"]


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
    between-batch garbage collection, sparing the newest half of the
    threshold per cycle, as :class:`~repro.online.runner.OnlineRunner`
    does; 0 disables GC entirely.
    """

    __slots__ = _fields = (
        "host",
        "port",
        "unix_path",
        "level",
        "n_shards",
        "timeout",
        "queue_capacity",
        "batch_size",
        "gc_threshold",
        "poll_interval",
        "http_port",
        "stats_bytes_ttl",
        "kernel_sample_every",
        "slow_batch_ms",
    )
    __hash__ = None  # type: ignore[assignment]

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: Optional[int] = 0,
        unix_path: Optional[Union[str, Path]] = None,
        level: str = "si",
        n_shards: int = 1,
        timeout: float = 5.0,
        queue_capacity: int = 10_000,
        batch_size: int = 500,
        gc_threshold: int = 0,
        poll_interval: float = 0.5,
        http_port: Optional[int] = None,
        stats_bytes_ttl: float = 2.0,
        kernel_sample_every: int = 16,
        slow_batch_ms: Optional[float] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.unix_path = unix_path
        self.level = level
        self.n_shards = n_shards
        self.timeout = timeout
        self.queue_capacity = queue_capacity
        self.batch_size = batch_size
        self.gc_threshold = gc_threshold
        #: Seconds between idle polls of the checker's EXT timer queue.  A
        #: finite ``timeout`` arms real-clock deadlines that must fire even
        #: when no transactions are arriving; the daemon polls at this
        #: cadence so due verdicts are pushed from a quiet wire too.
        self.poll_interval = poll_interval
        #: TCP port of the HTTP observability sidecar (``/metrics``,
        #: ``/health``, ``/stats``); 0 binds an ephemeral port (read it back
        #: from ``CheckerService.http_address``), ``None`` (the default)
        #: disables the sidecar entirely.
        self.http_port = http_port
        #: Seconds the ``deep_sizeof`` byte estimate stays cached.  Wire
        #: STATS requests and ``/metrics`` scrapes share the cached figure so
        #: a scrape loop cannot stall ingest by re-walking the checker's
        #: structures on the event loop on every request; 0 disables the
        #: cache (every request re-measures).
        self.stats_bytes_ttl = stats_bytes_ttl
        #: Sample per-stage kernel wall times on every Nth drained batch
        #: (``KernelStats.sample_every``); 0 disables stage timing.  The
        #: default keeps the hot path within bench noise while still feeding
        #: the stage-seconds counters on ``/metrics``.
        self.kernel_sample_every = kernel_sample_every
        #: Wall-time threshold in *milliseconds* above which one
        #: ``receive_many`` call is traced as a slow batch (structured record
        #: to stderr + ring buffer); ``None`` disables the trace.
        self.slow_batch_ms = slow_batch_ms

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"ServiceConfig({shown})"

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
        if self.http_port is not None and not 0 <= self.http_port <= 65535:
            raise ValueError("http_port must be in [0, 65535]")
        if self.stats_bytes_ttl < 0:
            raise ValueError("stats_bytes_ttl must be >= 0")
        if self.kernel_sample_every < 0:
            raise ValueError("kernel_sample_every must be >= 0")
        if self.slow_batch_ms is not None and self.slow_batch_ms <= 0:
            raise ValueError("slow_batch_ms must be positive when set")

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
