#!/usr/bin/env python3
"""Continuous online isolation monitoring of a live workload (§VI).

The production scenario for Aion: a database serves an application
(here: the RUBiS auction clone) while a collector tails its CDC stream
and feeds an online checker.  Delivery is batched and asynchronous —
transactions arrive out of timestamp order — so EXT verdicts flip-flop
until the delayed transactions land, and only timeout-expired verdicts
are reported.

This example monitors two deployments:

- a healthy one (violations: none; flip-flops: transient only);
- one that silently loses writes midway (conflict detection disabled is
  simulated by injecting NOCONFLICT faults into the collected history).

Run:  python examples/online_monitoring.py
"""

from repro.core.aion import Aion, AionConfig
from repro.db.faults import HistoryFaultInjector
from repro.online.clock import SimClock
from repro.online.collector import HistoryCollector
from repro.online.delays import NormalDelay
from repro.online.runner import GcPolicy, OnlineRunner
from repro.workloads.rubis import generate_rubis_history


def monitor(name: str, history) -> None:
    collector = HistoryCollector(
        batch_size=500,
        arrival_tps=10_000,
        delay_model=NormalDelay(mean_ms=100, std_ms=10),  # §VI-C asynchrony
        seed=7,
    )
    schedule = collector.schedule(history)

    clock = SimClock()
    checker = Aion(AionConfig(timeout=5.0), clock=clock)
    runner = OnlineRunner(
        checker, clock, gc_policy=GcPolicy.CHECKING_GC, gc_threshold=2_000
    )
    report = runner.run_capacity(schedule)

    stats = checker.flipflop_stats
    print(f"\n=== {name} ===")
    print(f"processed        : {report.n_processed} txns "
          f"({report.overall_tps:,.0f} TPS sustained, "
          f"{report.n_gc_cycles} GC cycles)")
    print(f"out-of-order     : {schedule.out_of_order_fraction() * 100:.1f}% of adjacent arrivals")
    print(f"flip-flops       : {sum(stats.flips_per_pair.values())} (txn, key) pairs, "
          f"{stats.n_flipped_txns} txns affected")
    print(f"rectify times    : {stats.rectify_histogram()}")
    print(f"final verdict    : {report.result.summary()}")
    for violation in report.result.violations[:3]:
        print(f"  -> {violation.describe()}")
    checker.close()


def main() -> None:
    clean = generate_rubis_history(4_000, seed=99)
    monitor("healthy RUBiS deployment", clean)

    injector = HistoryFaultInjector(clean, seed=13)
    for _ in range(4):
        injector.inject_noconflict()
    monitor("deployment with lost-update bugs (injected)", injector.build())

    print(
        "\nEvery flip-flop above was a *transient* wrong verdict rectified\n"
        "when the delayed transaction arrived; only verdicts still wrong\n"
        "when their 5 s timer expired are reported as violations."
    )


if __name__ == "__main__":
    main()
