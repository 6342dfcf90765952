"""``repro serve``: run the online checker as a long-lived daemon.

The daemon process loads no TLS.  ``asyncio`` imports :mod:`ssl` only to
offer TLS transports, and the daemon has none; the import alone maps
libssl and libcrypto for the life of the process (with ``hashlib``,
which session tokens no longer use, about 5 MB of peak RSS).  So
:func:`run` imports asyncio with ``ssl`` masked when the process has
loaded neither yet, which is the case for ``python -m repro serve``.
Only that process changes: a program that imports asyncio itself and
embeds :class:`repro.service.CheckerService` (or
:class:`repro.service.ServiceThread`) keeps the asyncio it had.
"""

from __future__ import annotations

import argparse
import signal
import sys

from repro.service.config import ServiceConfig

#: The signals that stop the daemon gracefully.
_STOP_SIGNALS = (signal.SIGINT, signal.SIGTERM)


def _import_asyncio_without_tls() -> None:
    """Import :mod:`asyncio` with ``import ssl`` failing, if neither is loaded.

    asyncio's modules bind ``ssl = None`` when that import fails, as on a
    Python built without OpenSSL.  The mask is lifted at once, so a later
    ``import ssl`` elsewhere in the process loads the real module; asyncio
    keeps its ``None``.
    """
    if "asyncio" in sys.modules or "ssl" in sys.modules:
        return
    sys.modules["ssl"] = None  # type: ignore[assignment]
    try:
        import asyncio  # noqa: F401
    finally:
        del sys.modules["ssl"]


def run(args: argparse.Namespace) -> int:
    if args.no_tcp and args.unix is None:
        print("--no-tcp requires --unix", file=sys.stderr)
        return 2
    config = ServiceConfig(
        host=args.host,
        port=None if args.no_tcp else args.port,
        unix_path=args.unix,
        level=args.level,
        timeout=args.timeout,
        queue_capacity=args.queue_capacity,
        batch_size=args.batch_size,
        gc_threshold=args.gc_threshold,
        http_port=args.http_port,
        slow_batch_ms=args.slow_batch_ms,
        kernel_sample_every=args.kernel_sample_every,
    )
    try:
        config.validate()
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    _import_asyncio_without_tls()
    import asyncio

    from repro.service.daemon import CheckerService

    async def _serve() -> CheckerService:
        service = CheckerService(config)
        await service.start()
        if service.tcp_address is not None:
            host, port = service.tcp_address
            # The benchmark ladder finds an ephemeral port by parsing this line.
            print(f"listening on {host}:{port} ({config.checker_kind})", flush=True)
        if service.unix_path is not None:
            print(f"listening on unix:{service.unix_path} ({config.checker_kind})", flush=True)
        if service.http_address is not None:
            http_host, http_port = service.http_address
            print(f"metrics on http://{http_host}:{http_port}/metrics", flush=True)
        loop = asyncio.get_running_loop()

        def _graceful() -> None:
            loop.create_task(service.shutdown())

        for signum in _STOP_SIGNALS:
            try:
                loop.add_signal_handler(signum, _graceful)
            except NotImplementedError:  # pragma: no cover - non-unix hosts
                pass
        await service.wait_closed()
        # The daemon has stopped, so a further stop signal changes
        # nothing.  Hold them from here: closing the loop puts back the
        # default handlers, under which one would kill the process
        # before it reports.  Only this thread is left once asyncio.run
        # has joined its executor.
        if hasattr(signal, "pthread_sigmask"):
            signal.pthread_sigmask(signal.SIG_BLOCK, _STOP_SIGNALS)
        return service

    service = asyncio.run(_serve())
    # Setting SIG_IGN discards the held signals.
    for signum in _STOP_SIGNALS:
        signal.signal(signum, signal.SIG_IGN)
    if hasattr(signal, "pthread_sigmask"):
        signal.pthread_sigmask(signal.SIG_UNBLOCK, _STOP_SIGNALS)
    # The shutdown's snapshot: the checker is closed by now, and its
    # spill store with it.
    stats = service.final_stats or service.stats(include_bytes=False)
    result = service.final_result
    print(f"served {stats['processed']} transactions "
          f"({stats['throughput']['sustained_tps']:,.0f} sustained TPS)")
    if result is not None:
        print(result.summary())
    # A clean drain-then-finalize exit is success regardless of verdict;
    # the verdict belongs to the replaying client (--expect).
    return 0
