"""Fig 12 — throughput of online checking over time.

Four panels: (a) Aion-SER with three GC strategies vs Cobra under
fence-frequency/round-size configurations; (b) Aion (SI) with the same
GC strategies; (c)/(d) Aion-SER on RUBiS and Twitter.  The paper's
shape: no-gc > checking-gc > full-gc; every Aion variant sustains far
more than Cobra; SI checking pays more for GC than SER checking.
"""

import gc as host_gc
import time

from repro.baselines.cobra import CobraChecker, CobraConfig
from repro.bench import (
    cached_default_history,
    cached_rubis_history,
    cached_twitter_history,
    pick,
    write_result,
)
from repro.core.aion import Aion, AionConfig
from repro.core.aion_ser import AionSer
from repro.db.engine import IsolationLevel
from repro.online.clock import SimClock
from repro.online.collector import HistoryCollector
from repro.online.delays import NormalDelay
from repro.online.runner import GcPolicy, OnlineRunner


def _schedule(history, seed=12):
    # Arrivals exceed the pure-Python checkers' capacity (so the run is
    # checker-bound, as in the paper) while the backlog stays well under
    # the paper's 5 s EXT timeout.
    collector = HistoryCollector(
        batch_size=500, arrival_tps=10_000, delay_model=NormalDelay(100, 10), seed=seed
    )
    return collector.schedule(history)


def _aion_row(label, checker_factory, schedule, policy, threshold):
    host_gc.collect()
    clock = SimClock()
    checker = checker_factory(clock)
    runner = OnlineRunner(checker, clock, gc_policy=policy, gc_threshold=threshold)
    report = runner.run(schedule)
    checker.close()
    return {
        "checker": label,
        "tps": round(report.overall_tps),
        "gc_cycles": report.n_gc_cycles,
        "violations": len(report.result.violations),
    }


def _cobra_row(label, history, fence_every, round_size):
    # Cobra consumes its own collected stream in client (commit) order —
    # its fence transactions live inside the workload.
    checker = CobraChecker(CobraConfig(fence_every=fence_every, round_size=round_size))
    stream = history.by_commit_ts()
    t0 = time.perf_counter()
    processed = 0
    for txn in stream:
        checker.receive(txn)
        processed += 1
        if checker.stopped:
            break
    checker.finalize()
    elapsed = max(time.perf_counter() - t0, 1e-9)
    return {
        "checker": label,
        "tps": round(processed / elapsed),
        "gc_cycles": checker.rounds_checked,
        "violations": len(checker.result.violations),
    }


def _run_ser_default():
    n = pick(4_000, 20_000, 500_000)
    history = cached_default_history(
        n_sessions=24, n_transactions=n, ops_per_txn=8, n_keys=1000,
        isolation=IsolationLevel.SER, read_ratio=0.9, seed=1212,
    )
    schedule = _schedule(history)
    threshold = max(1000, n // 5)
    rows = [
        _aion_row("Aion-SER-no-gc", lambda c: AionSer(AionConfig(timeout=5.0), clock=c),
                  schedule, GcPolicy.NO_GC, 10**9),
        _aion_row("Aion-SER-checking-gc", lambda c: AionSer(AionConfig(timeout=5.0), clock=c),
                  schedule, GcPolicy.CHECKING_GC, threshold),
        _aion_row("Aion-SER-full-gc", lambda c: AionSer(AionConfig(timeout=5.0), clock=c),
                  schedule, GcPolicy.FULL_GC, threshold),
        _cobra_row("Cobra-F20-R2k4", history, 20, 2400),
        _cobra_row("Cobra-F1-R2k4", history, 1, 2400),
        _cobra_row("Cobra-F20-R4k8", history, 20, 4800),
    ]
    return rows


def _run_si_default():
    n = pick(4_000, 20_000, 500_000)
    history = cached_default_history(
        n_sessions=24, n_transactions=n, ops_per_txn=8, n_keys=1000, seed=1213
    )
    schedule = _schedule(history)
    threshold = max(1000, n // 5)
    return [
        _aion_row("Aion-no-gc", lambda c: Aion(AionConfig(timeout=5.0), clock=c),
                  schedule, GcPolicy.NO_GC, 10**9),
        _aion_row("Aion-checking-gc", lambda c: Aion(AionConfig(timeout=5.0), clock=c),
                  schedule, GcPolicy.CHECKING_GC, threshold),
        _aion_row("Aion-full-gc", lambda c: Aion(AionConfig(timeout=5.0), clock=c),
                  schedule, GcPolicy.FULL_GC, threshold),
    ]


def _run_ser_apps():
    n = pick(3_000, 15_000, 100_000)
    rows = []
    for dataset, history in [
        ("RUBiS", cached_rubis_history(n, seed=1214, isolation=IsolationLevel.SER)),
        ("Twitter", cached_twitter_history(n, seed=1215, isolation=IsolationLevel.SER)),
    ]:
        schedule = _schedule(history, seed=13)
        threshold = max(1000, n // 5)
        for policy, label in [
            (GcPolicy.NO_GC, "no-gc"),
            (GcPolicy.CHECKING_GC, "checking-gc"),
            (GcPolicy.FULL_GC, "full-gc"),
        ]:
            row = _aion_row(
                f"Aion-SER-{label}",
                lambda c: AionSer(AionConfig(timeout=5.0), clock=c),
                schedule,
                policy,
                threshold if policy is not GcPolicy.NO_GC else 10**9,
            )
            row["dataset"] = dataset
            rows.append(row)
    return rows


def test_fig12a_ser_default(run_once):
    rows = run_once(_run_ser_default)
    print()
    print(
        write_result(
            "fig12a",
            rows,
            title="Fig 12a: online SER checking throughput (default workload)",
            notes="Claim: Aion-SER-no-gc fastest; GC costs throughput; "
            "every Aion variant beats every Cobra configuration.",
        )
    )
    by = {row["checker"]: row["tps"] for row in rows}
    assert by["Aion-SER-no-gc"] >= by["Aion-SER-checking-gc"] * 0.7
    assert by["Aion-SER-checking-gc"] >= by["Aion-SER-full-gc"] * 0.5
    best_cobra = max(tps for name, tps in by.items() if name.startswith("Cobra"))
    assert by["Aion-SER-no-gc"] > best_cobra, by
    assert by["Aion-SER-checking-gc"] >= best_cobra * 0.85, by
    for row in rows:
        assert row["violations"] == 0, row


def test_fig12b_si_default(run_once):
    rows = run_once(_run_si_default)
    print()
    print(
        write_result(
            "fig12b",
            rows,
            title="Fig 12b: online SI checking throughput (default workload)",
            notes="Claim: same ordering as SER; GC has a larger impact for SI.",
        )
    )
    by = {row["checker"]: row["tps"] for row in rows}
    assert by["Aion-no-gc"] >= by["Aion-checking-gc"] * 0.7
    assert by["Aion-checking-gc"] >= by["Aion-full-gc"] * 0.5
    for row in rows:
        assert row["violations"] == 0, row


def test_fig12cd_ser_apps(run_once):
    rows = run_once(_run_ser_apps)
    print()
    print(
        write_result(
            "fig12cd",
            rows,
            title="Fig 12c/d: online SER checking throughput (RUBiS / Twitter)",
            notes="Claim: same GC ordering across datasets.",
        )
    )
    for dataset in ("RUBiS", "Twitter"):
        subset = {row["checker"]: row["tps"] for row in rows if row["dataset"] == dataset}
        assert subset["Aion-SER-no-gc"] >= subset["Aion-SER-full-gc"] * 0.5, subset
        for row in rows:
            assert row["violations"] == 0, row
