"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``generate``  — run a workload through the simulated database and write
                the collected history to a JSONL file;
``check``     — check a history file (JSON Lines or packed, told apart by
                the file's first bytes) for SI or SER, offline (Chronos,
                straight from the decoded columns) or online (Aion, with a
                simulated asynchronous collector); exit 0 valid, 1
                violations, 2 usage or unreadable input;
``inject``    — corrupt a history file with labelled faults (for testing
                checkers against known-bad inputs);
``stats``     — print a history file's descriptive statistics;
``serve``     — run the online checker as a long-lived daemon speaking
                the binary-frame wire protocol (see :mod:`repro.service`);
``replay``    — stream a history file, WAL capture, anomaly fixture, or
                generated workload into a running daemon;
``chaos``     — run a seeded chaos campaign: live workload + daemon
                under scheduled faults, asserting every injected fault
                is detected and no clean window raises an alarm.

Examples
--------
::

    python -m repro generate --txns 10000 --out history.jsonl
    python -m repro check history.jsonl --level si
    python -m repro check history.jsonl --level ser --online
    python -m repro check history.jsonl --online --shards 4 --batch-size 500
    python -m repro inject history.jsonl --faults 5 --out bad.jsonl
    python -m repro check bad.jsonl
    python -m repro serve --port 7401 --shards 4
    python -m repro replay --history history.jsonl --port 7401
    python -m repro replay --anomaly dirty-read --port 7401 \\
        --expect violation --shutdown
    python -m repro chaos --seed 7 --segments 6
    python -m repro chaos --seed 7 --save-schedule plan.json
    python -m repro chaos --schedule plan.json --json
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Optional, Sequence

# Each command imports what it runs inside its handler: ``repro check``
# offline must not pay for the online checkers, the simulated database
# or the daemon.

__all__ = ["main"]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # ``repro check … | head``: the reader left.  Point stdout at
        # /dev/null so the interpreter's exit-time flush stays quiet too,
        # and exit the way a SIGPIPE death reads to a shell.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 128 + 13
    return code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Online timestamp-based transactional isolation checking",
    )
    commands = parser.add_subparsers(required=True)

    generate = commands.add_parser("generate", help="generate a history file")
    generate.add_argument("--workload", default="default",
                          choices=["default", "list", "twitter", "rubis", "tpcc"])
    generate.add_argument("--txns", type=int, default=10_000)
    generate.add_argument("--sessions", type=int, default=24)
    generate.add_argument("--ops-per-txn", type=int, default=15)
    generate.add_argument("--read-ratio", type=float, default=0.5)
    generate.add_argument("--keys", type=int, default=1000)
    generate.add_argument("--distribution", default="zipfian",
                          choices=["uniform", "zipfian", "hotspot"])
    generate.add_argument("--isolation", default="si", choices=["si", "ser"])
    generate.add_argument("--seed", type=int, default=2025)
    generate.add_argument("--clock-skew", type=float, default=0.0,
                          help="probability of a skewed timestamp (bug injection)")
    generate.add_argument("--out", required=True)
    generate.set_defaults(handler=_cmd_generate)

    check = commands.add_parser("check", help="check a history file")
    check.add_argument("history")
    check.add_argument("--level", default="si", choices=["si", "ser"])
    check.add_argument("--online", action="store_true",
                       help="use the online checker with a simulated collector")
    check.add_argument("--timeout", type=float, default=5.0,
                       help="EXT re-checking timeout in (virtual) seconds")
    check.add_argument("--delay-mean-ms", type=float, default=100.0)
    check.add_argument("--delay-std-ms", type=float, default=10.0)
    check.add_argument("--max-report", type=int, default=10)
    check.add_argument("--shards", type=int, default=1,
                       help="hash-partition the online SI checker's state across "
                            "N shards (requires --online --level si)")
    check.add_argument("--batch-size", type=int, default=0,
                       help="feed the online checker batches of this size via "
                            "receive_many (0 = per-transaction ingestion)")
    check.set_defaults(handler=_cmd_check)

    inject = commands.add_parser("inject", help="inject labelled faults")
    inject.add_argument("history")
    inject.add_argument("--faults", type=int, default=5)
    inject.add_argument("--seed", type=int, default=0)
    inject.add_argument("--out", required=True)
    inject.set_defaults(handler=_cmd_inject)

    stats = commands.add_parser(
        "stats", help="describe a history file or a running daemon")
    stats.add_argument("history", nargs="?", default=None,
                       help="history file, JSONL or packed (omit to query a daemon)")
    stats.add_argument("--host", default="127.0.0.1")
    stats.add_argument("--port", type=int, default=None,
                       help="query a running daemon's STATS over the wire")
    stats.add_argument("--unix", default=None, metavar="PATH",
                       help="query the daemon via unix socket instead of TCP")
    stats.add_argument("--json", action="store_true",
                       help="print the raw STATS payload as JSON")
    stats.set_defaults(handler=_cmd_stats)

    serve = commands.add_parser("serve", help="run the checker daemon")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7401,
                       help="TCP port to listen on (0 = ephemeral)")
    serve.add_argument("--no-tcp", action="store_true",
                       help="disable the TCP listener (requires --unix)")
    serve.add_argument("--unix", default=None, metavar="PATH",
                       help="also listen on a unix socket at PATH")
    serve.add_argument("--level", default="si", choices=["si", "ser"])
    serve.add_argument("--shards", type=int, default=1,
                       help="shard the SI checker's state across N shards")
    serve.add_argument("--timeout", type=float, default=5.0,
                       help="EXT re-checking timeout in seconds ('inf' disables)")
    serve.add_argument("--queue-capacity", type=int, default=10_000,
                       help="ingest queue bound (transactions); full = backpressure")
    serve.add_argument("--batch-size", type=int, default=500,
                       help="max transactions per receive_many drain cycle")
    serve.add_argument("--gc-threshold", type=int, default=0,
                       help="collect when this many transactions are resident (0 = off)")
    serve.add_argument("--gc-keep-recent", type=int, default=None,
                       help="residents spared per GC cycle (default: half the threshold)")
    serve.add_argument("--http-port", type=int, default=None, metavar="PORT",
                       help="serve /metrics, /health and /stats over HTTP on "
                       "this port (0 = ephemeral; default: disabled)")
    serve.add_argument("--slow-batch-ms", type=float, default=None, metavar="MS",
                       help="trace any receive_many call slower than MS "
                       "milliseconds (structured record to stderr)")
    serve.add_argument("--kernel-sample-every", type=int, default=16, metavar="N",
                       help="sample per-stage kernel wall times every Nth "
                       "batch (0 = off)")
    serve.add_argument("--stats-bytes-ttl", type=float, default=2.0, metavar="S",
                       help="seconds the deep-sizeof byte estimate stays "
                       "cached between STATS/metrics requests")
    serve.set_defaults(handler=_cmd_serve)

    replay = commands.add_parser("replay", help="stream a history into a daemon")
    source = replay.add_mutually_exclusive_group(required=True)
    source.add_argument("--history", metavar="FILE", help="JSONL history file")
    source.add_argument("--wal", metavar="FILE", help="textual WAL capture")
    source.add_argument("--anomaly", metavar="NAME",
                        help="a fixture from histories/anomalies.py (e.g. dirty-read)")
    source.add_argument("--generate", type=int, metavar="N",
                        help="generate an N-transaction default workload")
    replay.add_argument("--host", default="127.0.0.1")
    replay.add_argument("--port", type=int, default=7401)
    replay.add_argument("--unix", default=None, metavar="PATH",
                        help="connect via unix socket instead of TCP")
    replay.add_argument("--batch-size", type=int, default=500)
    replay.add_argument("--rate", type=float, default=None, metavar="TPS",
                        help="pace submission at this offered load (default: flat out)")
    replay.add_argument("--no-ack", action="store_true",
                        help="fire-and-forget submission (TCP backpressure only)")
    replay.add_argument("--seed", type=int, default=2025,
                        help="workload seed for --generate")
    replay.add_argument("--connect-timeout", type=float, default=10.0,
                        help="seconds to keep retrying the initial connection")
    replay.add_argument("--shutdown", action="store_true",
                        help="shut the daemon down after the replay (graceful drain)")
    replay.add_argument("--expect", default="any",
                        choices=["any", "valid", "violation"],
                        help="exit 0 only if the final verdict matches")
    replay.add_argument("--max-report", type=int, default=10)
    replay.set_defaults(handler=_cmd_replay)

    chaos = commands.add_parser(
        "chaos", help="run a fault-scheduled chaos campaign against a live daemon")
    chaos.add_argument("--seed", type=int, default=2025,
                       help="campaign seed; everything randomized derives from it")
    chaos.add_argument("--segments", type=int, default=8,
                       help="workload rounds in the campaign")
    chaos.add_argument("--txns-per-segment", type=int, default=40)
    chaos.add_argument("--sessions", type=int, default=4,
                       help="concurrent database sessions in the workload")
    chaos.add_argument("--keys", type=int, default=12)
    chaos.add_argument("--level", default="si", choices=["si", "ser"])
    chaos.add_argument("--shards", type=int, default=1,
                       help="shard the daemon's SI checker across N shards")
    chaos.add_argument("--kills", type=int, default=2,
                       help="scheduled connection kills (client must resume)")
    chaos.add_argument("--restarts", type=int, default=1,
                       help="scheduled hard daemon restarts")
    chaos.add_argument("--pauses", type=int, default=1,
                       help="scheduled slow-network segments")
    chaos.add_argument("--skew-bursts", type=int, default=1,
                       help="scheduled clock-skew burst segments")
    chaos.add_argument("--mutations", type=int, default=3,
                       help="scheduled axiom-targeted mutations of CDC batches")
    chaos.add_argument("--pause-ms", type=float, default=25.0,
                       help="inter-batch sleep during a pause segment")
    chaos.add_argument("--batch-size", type=int, default=8,
                       help="transactions per submit frame")
    chaos.add_argument("--schedule", metavar="FILE", default=None,
                       help="run a saved schedule file instead of generating "
                       "one (ignores the fault-count flags)")
    chaos.add_argument("--save-schedule", metavar="FILE", default=None,
                       help="write the generated schedule as JSON and exit")
    chaos.add_argument("--json", action="store_true",
                       help="print the full report as JSON instead of a summary")
    chaos.add_argument("--report", metavar="FILE", default=None,
                       help="also write the JSON report to FILE")
    chaos.set_defaults(handler=_cmd_chaos)

    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.db.engine import IsolationLevel
    from repro.db.faults import SkewedOracle
    from repro.db.oracle import CentralizedOracle
    from repro.histories.serialization import save_history
    from repro.workloads.generator import generate_default_history
    from repro.workloads.list_workload import generate_list_history
    from repro.workloads.rubis import generate_rubis_history
    from repro.workloads.spec import WorkloadSpec
    from repro.workloads.tpcc import generate_tpcc_history
    from repro.workloads.twitter import generate_twitter_history

    isolation = IsolationLevel.SI if args.isolation == "si" else IsolationLevel.SER
    oracle = None
    if args.clock_skew > 0:
        oracle = SkewedOracle(CentralizedOracle(), probability=args.clock_skew)

    t0 = time.perf_counter()
    if args.workload in ("default", "list"):
        spec = WorkloadSpec(
            n_sessions=args.sessions,
            n_transactions=args.txns,
            ops_per_txn=args.ops_per_txn,
            read_ratio=args.read_ratio,
            n_keys=args.keys,
            distribution=args.distribution,
            isolation=isolation,
            seed=args.seed,
        )
        generator = generate_default_history if args.workload == "default" else generate_list_history
        history = generator(spec, oracle=oracle)
    else:
        app = {
            "twitter": generate_twitter_history,
            "rubis": generate_rubis_history,
            "tpcc": generate_tpcc_history,
        }[args.workload]
        history = app(
            args.txns,
            n_sessions=args.sessions,
            seed=args.seed,
            oracle=oracle,
            isolation=isolation,
        )
    save_history(history, args.out)
    elapsed = time.perf_counter() - t0
    print(f"wrote {len(history)} transactions to {args.out} in {elapsed:.2f}s")
    return 0


def _load(loader, path: str):
    """``loader(path)``, or ``None`` once an unreadable or malformed
    history file is reported as ``error: <path>[:<line>]: <what>``."""
    try:
        return loader(path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _cmd_check(args: argparse.Namespace) -> int:
    # Flag validation precedes the (potentially large) history load.
    if args.shards < 1:
        print("--shards must be >= 1", file=sys.stderr)
        return 2
    if args.shards > 1 and not (args.online and args.level == "si"):
        print("--shards requires --online --level si", file=sys.stderr)
        return 2
    if args.batch_size < 0:
        print("--batch-size must be >= 0", file=sys.stderr)
        return 2
    if args.batch_size > 0 and not args.online:
        print("--batch-size requires --online", file=sys.stderr)
        return 2
    from repro.histories.serialization import load_columns

    t0 = time.perf_counter()
    batch = _load(load_columns, args.history)
    if batch is None:
        return 2
    load_seconds = time.perf_counter() - t0
    if args.online:
        headline, result = _check_online(args, batch)
    else:
        if args.level == "si":
            from repro.core.chronos import Chronos

            checker = Chronos()
        else:
            from repro.core.chronos_ser import ChronosSer

            checker = ChronosSer()
        result = checker.check(batch)
        report = checker.report
        # The Fig 8 decomposition: loading is the largest stage.
        headline = (
            f"offline {args.level.upper()}: {len(batch)} transactions checked in "
            f"{load_seconds + report.total_seconds:.2f}s (load {load_seconds:.2f}s, "
            f"sort {report.sort_seconds:.2f}s, check {report.check_seconds:.2f}s)"
        )

    print(headline)
    print(result.summary())
    for violation in result.violations[: args.max_report]:
        print(f"  {violation.describe()}")
    if len(result.violations) > args.max_report:
        print(f"  ... and {len(result.violations) - args.max_report} more")
    return 0 if result.is_valid else 1


def _check_online(args: argparse.Namespace, batch):
    """Replay ``batch`` into an online checker; returns (headline, result)."""
    from repro.core.aion import Aion, AionConfig
    from repro.histories.model import History
    from repro.online.clock import SimClock
    from repro.online.collector import HistoryCollector
    from repro.online.delays import NormalDelay
    from repro.online.runner import OnlineRunner

    history = History(batch.transactions())
    t0 = time.perf_counter()
    collector = HistoryCollector(
        batch_size=500,
        arrival_tps=25_000,
        delay_model=NormalDelay(args.delay_mean_ms, args.delay_std_ms),
    )
    schedule = collector.schedule(history)
    clock = SimClock()
    if args.shards > 1:
        from repro.core.sharded import ShardedAion

        checker = ShardedAion(
            AionConfig(timeout=args.timeout), n_shards=args.shards, clock=clock
        )
    elif args.level == "si":
        checker = Aion(AionConfig(timeout=args.timeout), clock=clock)
    else:
        from repro.core.aion_ser import AionSer

        checker = AionSer(AionConfig(timeout=args.timeout), clock=clock)
    runner = OnlineRunner(checker, clock)
    report = runner.run_capacity(schedule, batch_size=max(1, args.batch_size))
    checker.close()
    elapsed = time.perf_counter() - t0
    shard_note = f", {args.shards} shards" if args.shards > 1 else ""
    batch_note = f", batch={args.batch_size}" if args.batch_size > 0 else ""
    headline = (
        f"online {args.level.upper()} "
        f"({report.overall_tps:,.0f} TPS{shard_note}{batch_note}): "
        f"{len(history)} transactions checked in {elapsed:.2f}s"
    )
    return headline, report.result


def _cmd_inject(args: argparse.Namespace) -> int:
    from repro.db.faults import FaultInjector
    from repro.histories.serialization import load_history, save_history

    history = _load(load_history, args.history)
    if history is None:
        return 2
    injector = FaultInjector(history, seed=args.seed)
    labels = injector.inject_mix(args.faults)
    save_history(injector.build(), args.out)
    print(f"injected {len(labels)} faults into {args.out}:")
    for label in labels:
        print(f"  {label.describe()}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.service import CheckerService, ServiceConfig

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
        gc_keep_recent=args.gc_keep_recent,
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


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.db.cdc import iter_wal_file
    from repro.histories.anomalies import ANOMALY_CATALOG
    from repro.histories.serialization import load_history
    from repro.service import (
        CheckerClient,
        ServiceError,
        replay_transactions,
        transactions_in_commit_order,
    )
    from repro.workloads.generator import generate_default_history
    from repro.workloads.spec import WorkloadSpec

    if args.history is not None:
        source = _load(load_history, args.history)
        if source is None:
            return 2
    elif args.wal is not None:
        source = list(iter_wal_file(args.wal))
    elif args.anomaly is not None:
        spec = ANOMALY_CATALOG.get(args.anomaly)
        if spec is None:
            names = ", ".join(sorted(ANOMALY_CATALOG))
            print(f"unknown anomaly {args.anomaly!r}; choose from: {names}", file=sys.stderr)
            return 2
        source = spec.build()
    else:
        source = generate_default_history(
            WorkloadSpec(
                n_sessions=12,
                n_transactions=args.generate,
                ops_per_txn=8,
                n_keys=200,
                seed=args.seed,
            )
        )
    txns = transactions_in_commit_order(source)

    client = CheckerClient(args.host, args.port, unix_path=args.unix)
    try:
        client.connect(retry_for=args.connect_timeout)
    except (OSError, ServiceError) as exc:
        print(f"cannot reach the daemon: {exc}", file=sys.stderr)
        return 2
    with client:
        report = replay_transactions(
            client,
            txns,
            batch_size=args.batch_size,
            arrival_tps=args.rate,
            ack=not args.no_ack,
            finalize=not args.shutdown,
        )
        result = client.shutdown() if args.shutdown else report.result

    print(f"replayed {report.sent} transactions in {report.batches} batches "
          f"({report.wire_tps:,.0f} end-to-end TPS)")
    print(f"daemon processed {report.stats.get('processed', '?')} total, "
          f"{report.stats.get('resident_txns', '?')} resident")
    assert result is not None
    print(result.summary())
    for violation in result.violations[: args.max_report]:
        print(f"  {violation.describe()}")
    if len(result.violations) > args.max_report:
        print(f"  ... and {len(result.violations) - args.max_report} more")
    if args.expect == "valid":
        return 0 if result.is_valid else 1
    if args.expect == "violation":
        return 0 if not result.is_valid else 1
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.chaos import CampaignRunner, CampaignSchedule

    if args.schedule is not None:
        schedule = CampaignSchedule.from_dict(
            json.loads(Path(args.schedule).read_text(encoding="utf-8"))
        )
    else:
        try:
            schedule = CampaignSchedule.generate(
                args.seed,
                segments=args.segments,
                kills=args.kills,
                restarts=args.restarts,
                pauses=args.pauses,
                skew_bursts=args.skew_bursts,
                mutations=args.mutations,
                level=args.level,
            )
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    if args.save_schedule is not None:
        Path(args.save_schedule).write_text(
            json.dumps(schedule.to_dict(), indent=2) + "\n", encoding="utf-8"
        )
        print(f"wrote {len(schedule.events)}-event schedule to {args.save_schedule}")
        return 0

    try:
        runner = CampaignRunner(
            schedule,
            level=args.level,
            n_shards=args.shards,
            n_sessions=args.sessions,
            n_keys=args.keys,
            txns_per_segment=args.txns_per_segment,
            batch_size=args.batch_size,
            pause_ms=args.pause_ms,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    report = runner.run()
    if args.report is not None:
        Path(args.report).write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.summary())
    return 0 if report.ok else 1


def _cmd_stats(args: argparse.Namespace) -> int:
    daemon_mode = args.port is not None or args.unix is not None
    if daemon_mode and args.history is not None:
        print("give either a history file or --port/--unix, not both", file=sys.stderr)
        return 2
    if daemon_mode:
        return _print_daemon_stats(args)
    if args.history is None:
        print("give a history file, or --port/--unix to query a daemon", file=sys.stderr)
        return 2
    from repro.histories.serialization import load_history
    from repro.histories.stats import HistoryStats

    history = _load(load_history, args.history)
    if history is None:
        return 2
    stats = HistoryStats.of(history)
    print(f"transactions : {stats.n_transactions}")
    print(f"sessions     : {stats.n_sessions}")
    print(f"operations   : {stats.n_operations} ({stats.ops_per_txn:.1f} per txn)")
    print(f"reads        : {stats.n_reads} registers, {stats.n_list_reads} lists "
          f"({stats.read_ratio * 100:.0f}% of ops)")
    print(f"writes       : {stats.n_writes} registers, {stats.n_appends} appends")
    print(f"keys         : {stats.n_keys}")
    print(f"read-only    : {stats.n_read_only} transactions")
    return 0


def _print_daemon_stats(args: argparse.Namespace) -> int:
    import json

    from repro.service import CheckerClient

    port = args.port if args.port is not None else 0
    client = CheckerClient(args.host, port, unix_path=args.unix)
    try:
        client.connect()
    except OSError as exc:
        print(f"cannot reach the daemon: {exc}", file=sys.stderr)
        return 2
    with client:
        stats = client.stats()
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    throughput = stats.get("throughput", {})
    latency = stats.get("latency", {})
    gc = stats.get("gc", {})
    print(f"checker      : {stats.get('checker', '?')} (uptime {stats.get('uptime_s', 0):.1f}s)")
    print(f"processed    : {stats.get('processed', 0)} transactions "
          f"({throughput.get('sustained_tps', 0):,.0f} sustained TPS)")
    print(f"resident     : {stats.get('resident_txns', 0)} arrivals indexed"
          + (f", ~{stats['estimated_bytes']:,} bytes"
             if stats.get("estimated_bytes") is not None else ""))
    ext = stats.get("ext")
    if ext:
        print(f"pending EXT  : {ext['pending_reads']} reads of "
              f"{ext['pending_txns']} transactions awaiting their timeout")
    print(f"violations   : {stats.get('violations', 0)}")
    print(f"queue        : depth {stats.get('queue_depth', 0)}, "
          f"high-water {stats.get('queue_high_water', 0)} / "
          f"capacity {stats.get('queue_capacity', 0)} txns")
    if latency.get("count"):
        print(f"latency      : p50 {latency['p50_s'] * 1e3:.1f}ms, "
              f"p95 {latency['p95_s'] * 1e3:.1f}ms, "
              f"p99 {latency['p99_s'] * 1e3:.1f}ms "
              f"({latency['count']} samples)")
    print(f"gc           : {gc.get('cycles', 0)} cycles, "
          f"{gc.get('spill_bytes', 0):,} bytes spilled, "
          f"{gc.get('reloads', 0)} reloads, "
          f"{gc.get('evicted', {}).get('txns', 0)} index entries released")
    host_gc = stats.get("host_gc")
    if host_gc:
        passes = host_gc["collections"]
        print(f"host gc      : {passes['0']} / {passes['1']} / {passes['2']} collector passes "
              f"(gen 0 / 1 / 2), {host_gc['seconds']:.3f}s in them")
    kernel = stats.get("kernel", {})
    if kernel:
        print(f"kernel       : {kernel.get('batches', 0)} batches, "
              f"{kernel.get('txns', 0)} txns, "
              f"{kernel.get('slow_batches', 0)} slow")
    shards = stats.get("shards")
    if shards:
        for row in shards:
            print(f"  shard {row['shard']:>2}  : {row['versions']} versions, "
                  f"{row['intervals']} intervals, {row['ext_reads']} ext-reads")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
