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
``replay``    — stream a history file (a saved CDC capture is one), an
                anomaly fixture, or a generated workload into a running
                daemon;
``chaos``     — run a seeded chaos campaign: live workload + daemon
                under scheduled faults, asserting every injected fault
                is detected and no clean window raises an alarm.

Examples
--------
::

    python -m repro generate --txns 10000 --out history.jsonl
    python -m repro check history.jsonl --level si
    python -m repro check history.jsonl --level ser --online
    python -m repro check history.jsonl --online --batch-size 500
    python -m repro inject history.jsonl --faults 5 --out bad.jsonl
    python -m repro check bad.jsonl
    python -m repro serve --port 7401
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
from importlib import import_module
from typing import Optional, Sequence

__all__ = ["main"]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # Each command's body is its own module under repro.commands, imported
    # here: ``repro check`` compiles neither the daemon's handler nor the
    # generator's, and each handler imports only what it runs.
    handler = import_module(f"repro.commands.{args.command}").run
    try:
        code = handler(args)
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
    generate.set_defaults(command="generate")

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
    check.add_argument("--batch-size", type=int, default=0,
                       help="feed the online checker batches of this size via "
                            "receive_many (0 = per-transaction ingestion)")
    check.set_defaults(command="check")

    inject = commands.add_parser("inject", help="inject labelled faults")
    inject.add_argument("history")
    inject.add_argument("--faults", type=int, default=5)
    inject.add_argument("--seed", type=int, default=0)
    inject.add_argument("--out", required=True)
    inject.set_defaults(command="inject")

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
    stats.set_defaults(command="stats")

    serve = commands.add_parser("serve", help="run the checker daemon")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7401,
                       help="TCP port to listen on (0 = ephemeral)")
    serve.add_argument("--no-tcp", action="store_true",
                       help="disable the TCP listener (requires --unix)")
    serve.add_argument("--unix", default=None, metavar="PATH",
                       help="also listen on a unix socket at PATH")
    serve.add_argument("--level", default="si", choices=["si", "ser"])
    serve.add_argument("--timeout", type=float, default=5.0,
                       help="EXT re-checking timeout in seconds ('inf' disables)")
    serve.add_argument("--queue-capacity", type=int, default=10_000,
                       help="ingest queue bound (transactions); full = backpressure")
    serve.add_argument("--batch-size", type=int, default=500,
                       help="max transactions per receive_many drain cycle")
    serve.add_argument("--gc-threshold", type=int, default=0,
                       help="collect when this many transactions are resident, "
                       "sparing the newest half (0 = off)")
    serve.add_argument("--http-port", type=int, default=None, metavar="PORT",
                       help="serve /metrics, /health and /stats over HTTP on "
                       "this port (0 = ephemeral; default: disabled)")
    serve.add_argument("--slow-batch-ms", type=float, default=None, metavar="MS",
                       help="trace any receive_many call slower than MS "
                       "milliseconds (structured record to stderr)")
    serve.add_argument("--kernel-sample-every", type=int, default=16, metavar="N",
                       help="sample per-stage kernel wall times every Nth "
                       "batch (0 = off)")
    serve.set_defaults(command="serve")

    replay = commands.add_parser("replay", help="stream a history into a daemon")
    source = replay.add_mutually_exclusive_group(required=True)
    source.add_argument("--history", metavar="FILE",
                        help="history file, JSON Lines or packed (a saved CDC capture is one)")
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
    replay.set_defaults(command="replay")

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
    chaos.set_defaults(command="chaos")

    return parser


def load_or_report(loader, path: str):
    """``loader(path)``, or ``None`` once an unreadable or malformed
    history file is reported as ``error: <path>[:<line>]: <what>``."""
    try:
        return loader(path)
    except OSError as exc:
        print(f"error: {path}: {exc.strerror or exc}", file=sys.stderr)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
    return None


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
