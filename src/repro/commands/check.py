"""``repro check``: check a history file offline (Chronos / Chronos-SER
straight from the decoded columns) or online (an online checker behind a
simulated asynchronous collector).
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.cli import load_or_report


def run(args: argparse.Namespace) -> int:
    # Flag validation precedes the (potentially large) history load.
    if args.batch_size < 0:
        print("--batch-size must be >= 0", file=sys.stderr)
        return 2
    if args.batch_size > 0 and not args.online:
        print("--batch-size requires --online", file=sys.stderr)
        return 2
    from repro.histories.serialization import load_columns

    t0 = time.perf_counter()
    batch = load_or_report(load_columns, args.history)
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
    if args.level == "si":
        checker = Aion(AionConfig(timeout=args.timeout), clock=clock)
    else:
        from repro.core.aion_ser import AionSer

        checker = AionSer(AionConfig(timeout=args.timeout), clock=clock)
    runner = OnlineRunner(checker, clock)
    report = runner.run(schedule, batch_size=max(1, args.batch_size))
    checker.close()
    elapsed = time.perf_counter() - t0
    batch_note = f", batch={args.batch_size}" if args.batch_size > 0 else ""
    headline = (
        f"online {args.level.upper()} "
        f"({report.overall_tps:,.0f} TPS{batch_note}): "
        f"{len(history)} transactions checked in {elapsed:.2f}s"
    )
    return headline, report.result
