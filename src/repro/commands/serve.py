"""``repro serve``: run the online checker as a long-lived daemon."""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys

from repro.service import CheckerService, ServiceConfig


def run(args: argparse.Namespace) -> int:
    if args.no_tcp and args.unix is None:
        print("--no-tcp requires --unix", file=sys.stderr)
        return 2
    config = ServiceConfig(
        host=args.host,
        port=None if args.no_tcp else args.port,
        unix_path=args.unix,
        level=args.level,
        n_shards=args.shards,
        timeout=args.timeout,
        queue_capacity=args.queue_capacity,
        batch_size=args.batch_size,
        gc_threshold=args.gc_threshold,
        http_port=args.http_port,
        slow_batch_ms=args.slow_batch_ms,
        kernel_sample_every=args.kernel_sample_every,
        stats_bytes_ttl=args.stats_bytes_ttl,
    )
    try:
        config.validate()
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2

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

        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, _graceful)
            except NotImplementedError:  # pragma: no cover - non-unix hosts
                pass
        await service.wait_closed()
        return service

    service = asyncio.run(_serve())
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
