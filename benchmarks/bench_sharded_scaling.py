#!/usr/bin/env python3
"""Sharded + batched ingestion scaling on the Fig-12 SI workload.

Measures the ingestion frontends directly — wall time to drain the same
checker-bound arrival stream the Fig 12b panel uses:

- ``Aion`` fed one transaction at a time (the baseline ingest loop);
- ``Aion.receive_many`` fed collector-sized batches (amortized clock
  reads, timer-queue advancement, deadline arming, and structure
  bindings);
- ``ShardedAion`` in serial mode at 1/2/4 shards in batched mode;
- (standalone runs) ``ShardedAion`` with the ``process`` pickle-pipe
  executor at 2/4/8 shards.

Repetitions are *interleaved* round-robin across the frontends (rather
than run back-to-back per frontend) so slow host drift — CPU frequency,
thermals, page cache — hits every frontend equally, and each row keeps
its best repetition.  Shape claims: batched ingestion beats the
per-transaction loop (its amortizations are pure savings), and every
configuration reports identical verdicts.

Standalone runs append a trajectory row to ``BENCH_sharded.json``::

    PYTHONPATH=src python benchmarks/bench_sharded_scaling.py --label my-change

recording the host core count alongside each row.
"""

import gc as host_gc
import json
import os
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "src") not in sys.path:  # direct `python benchmarks/...` runs
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench import cached_default_history, pick, write_result  # noqa: E402
from repro.core.aion import Aion, AionConfig  # noqa: E402
from repro.core.sharded import ShardedAion  # noqa: E402
from repro.online.collector import HistoryCollector  # noqa: E402
from repro.online.delays import NormalDelay  # noqa: E402

TRAJECTORY_PATH = REPO_ROOT / "BENCH_sharded.json"
BATCH = 500
REPEATS = 5


def _arrival_stream(history, seed=12):
    collector = HistoryCollector(
        batch_size=BATCH, arrival_tps=10_000, delay_model=NormalDelay(100, 10), seed=seed
    )
    return [txn for _, txn in collector.schedule(history)]


def _ingest_once(checker_factory, txns, batch_size):
    host_gc.collect()
    checker = checker_factory()
    t0 = time.perf_counter()
    if batch_size == 1:
        for txn in txns:
            checker.receive(txn)
    else:
        for offset in range(0, len(txns), batch_size):
            checker.receive_many(txns[offset : offset + batch_size])
    elapsed = time.perf_counter() - t0
    violations = len(checker.finalize().violations)
    checker.close()
    return elapsed, violations


def _frontends(include_remote=False):
    aion = lambda: Aion(AionConfig(timeout=float("inf")))
    frontends = [
        ("Aion per-txn", aion, 1),
        ("Aion batched", aion, BATCH),
    ]

    def sharded(n_shards, executor):
        return lambda: ShardedAion(
            AionConfig(timeout=float("inf")), n_shards=n_shards, executor=executor
        )

    for n_shards in (1, 2, 4):
        frontends.append(
            (f"ShardedAion x{n_shards} batched", sharded(n_shards, "serial"), BATCH)
        )
    if include_remote:
        for n_shards in (2, 4, 8):
            frontends.append(
                (f"ShardedAion x{n_shards} process", sharded(n_shards, "process"), BATCH)
            )
    return frontends


def _run_frontends(txns, frontends, repeats=REPEATS):
    best = {label: float("inf") for label, _, _ in frontends}
    violations = {}
    for _ in range(repeats):
        for label, factory, batch_size in frontends:
            elapsed, n_violations = _ingest_once(factory, txns, batch_size)
            best[label] = min(best[label], elapsed)
            violations[label] = n_violations
    return [
        {
            "frontend": label,
            "tps": round(len(txns) / best[label]),
            "wall_s": round(best[label], 3),
            "violations": violations[label],
        }
        for label, _, _ in frontends
    ]


def _run_scaling():
    n = pick(6_000, 20_000, 500_000)
    history = cached_default_history(
        n_sessions=24, n_transactions=n, ops_per_txn=8, n_keys=1000, seed=1213
    )
    return _run_frontends(_arrival_stream(history), _frontends())


def test_sharded_scaling(run_once):
    rows = run_once(_run_scaling)
    print()
    print(
        write_result(
            "sharded_scaling",
            rows,
            title="Sharded + batched ingestion frontend (Fig-12b workload)",
            notes="Claim: receive_many batching beats the per-transaction "
            "loop; all frontends report identical verdicts.",
        )
    )
    by = {row["frontend"]: row for row in rows}
    # Batching amortizes per-arrival overhead: it must be measurably
    # faster than the per-transaction loop on the same stream.
    assert by["Aion batched"]["tps"] > by["Aion per-txn"]["tps"], by
    # Identical verdicts everywhere (the workload is clean).
    verdicts = {row["violations"] for row in rows}
    assert verdicts == {0}, rows
    # The serial sharded coordinator pays command plumbing but must stay
    # within a small constant factor of the plain batched checker.
    assert by["ShardedAion x4 batched"]["tps"] > by["Aion per-txn"]["tps"] * 0.4, by


# ----------------------------------------------------------------------
# Standalone entry: record a BENCH_sharded.json trajectory row
# ----------------------------------------------------------------------

def record_entry(label, sizes, results):
    if TRAJECTORY_PATH.exists():
        payload = json.loads(TRAJECTORY_PATH.read_text(encoding="utf-8"))
    else:
        payload = {"figure": "sharded", "trajectory": []}
    payload["trajectory"].append(
        {
            "label": label,
            "recorded": time.strftime("%Y-%m-%d %H:%M:%S"),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "sizes": sizes,
            "results": results,
        }
    )
    TRAJECTORY_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return payload


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="unlabelled", help="trajectory entry label")
    parser.add_argument("--n", type=int, default=6_000, help="fig12b transaction count")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--no-record", action="store_true", help="do not append to BENCH_sharded.json"
    )
    args = parser.parse_args(argv)

    history = cached_default_history(
        n_sessions=24, n_transactions=args.n, ops_per_txn=8, n_keys=1000, seed=1213
    )
    txns = _arrival_stream(history)
    rows = _run_frontends(txns, _frontends(include_remote=True), repeats=args.repeats)
    by = {row["frontend"]: row for row in rows}

    for row in rows:
        print(f"{row['frontend']:>28}: {row['tps']:>8,} tps ({row['violations']} violations)")
    if len({row["violations"] for row in rows}) != 1:
        print("FAIL: frontends disagree on verdicts")
        return 1

    results = {}
    for row in rows:
        key = (
            row["frontend"]
            .replace("ShardedAion ", "sharded_")
            .replace("Aion ", "aion_")
            .replace(" ", "_")
            .replace("-", "_")
        )
        results[key] = {"tps": row["tps"], "violations": row["violations"]}

    if not args.no_record:
        sizes = {"fig12b_n": args.n, "batch": BATCH, "repeats": args.repeats}
        record_entry(args.label, sizes, results)
        print(f"recorded trajectory entry {args.label!r} -> {TRAJECTORY_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
