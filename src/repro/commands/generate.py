"""``repro generate``: run a workload through the simulated database and
write the collected history to a JSONL file.
"""

from __future__ import annotations

import argparse
import time

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


def run(args: argparse.Namespace) -> int:
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
