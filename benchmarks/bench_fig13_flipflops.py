"""Fig 13 — EXT verdict flip-flops and rectify times under N(100, 10²).

Paper claims (with 10K transactions, batches of 500, normal delays):
a sizeable fraction of transactions flip at least once, the vast
majority (99%) flip only once or twice, and over 95% of the transient
false positives/negatives are rectified within 10 ms.
"""

from repro.bench import cached_history, pick, write_result
from repro.core.aion import Aion, AionConfig
from repro.online.clock import SimClock
from repro.online.collector import HistoryCollector
from repro.online.delays import NormalDelay
from repro.online.runner import OnlineRunner
from repro.workloads import WorkloadSpec, generate_default_history


def _run():
    n = pick(3_000, 10_000, 10_000)
    history = cached_history(generate_default_history, WorkloadSpec(
        n_sessions=24, n_transactions=n, ops_per_txn=8, n_keys=1000, seed=1313
    ))
    collector = HistoryCollector(
        batch_size=500,
        arrival_tps=100_000,
        delay_model=NormalDelay(100.0, 10.0),
        seed=14,
    )
    schedule = collector.schedule(history)
    clock = SimClock()
    checker = Aion(AionConfig(timeout=5.0), clock=clock)
    report = OnlineRunner(checker, clock).run(schedule, charge_check_time=False)
    stats = checker.flipflop_stats
    outcome = {
        "flip_histogram": stats.flip_histogram(),
        "rectify_histogram": stats.rectify_histogram(),
        "flipped_txns": stats.n_flipped_txns,
        "n_txns": n,
        "violations": len(report.result.violations),
    }
    checker.close()
    return outcome


def test_fig13_flipflops(run_once):
    outcome = run_once(_run)
    flip_rows = [
        {"flips": bucket, "(txn,key)_count": count}
        for bucket, count in outcome["flip_histogram"].items()
    ]
    rectify_rows = [
        {"rectify_time": bucket, "count": count}
        for bucket, count in outcome["rectify_histogram"].items()
    ]
    print()
    print(write_result("fig13a", flip_rows, title="Fig 13a: flip-flops per (txn, key)"))
    print()
    print(
        write_result(
            "fig13b",
            rectify_rows,
            title="Fig 13b: time to rectify transient EXT verdicts",
            notes=f"flipped txns: {outcome['flipped_txns']} / {outcome['n_txns']}; "
            f"final violations: {outcome['violations']}",
        )
    )
    # Valid history: all flip-flops are transient, none survive timeout.
    assert outcome["violations"] == 0
    # Some flipping must occur under 100 ms +/- 10 ms delays.
    assert outcome["flipped_txns"] > 0
    # The vast majority of pairs flip once or twice.
    histogram = outcome["flip_histogram"]
    total = sum(histogram.values())
    assert total > 0
    assert (histogram["1"] + histogram["2"]) / total >= 0.95
    # >= 90% of transient wrong verdicts rectify within 100 ms (paper:
    # 10 ms on their hardware; the delay spread dominates here), read
    # from the buckets below 99 ms.
    rectify = outcome["rectify_histogram"]
    fast = sum(rectify[bucket] for bucket in ("0-1ms", "1-2ms", "2-10ms", "10-99ms"))
    assert fast / max(sum(rectify.values()), 1) >= 0.90, fast / max(sum(rectify.values()), 1)
