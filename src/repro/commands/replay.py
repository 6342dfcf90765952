"""``repro replay``: stream a history file (a saved CDC capture is one), an
anomaly fixture or a generated workload into a running daemon.
"""

from __future__ import annotations

import argparse
import sys

from repro.cli import load_or_report
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


def run(args: argparse.Namespace) -> int:
    if args.history is not None:
        source = load_or_report(load_history, args.history)
        if source is None:
            return 2
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
