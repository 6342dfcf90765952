"""Fig 23 (appendix) — Aion (SI) throughput on RUBiS and Twitter.

Paper claim: Aion's SI throughput is lower on Twitter than on RUBiS
because Twitter keeps minting new keys (every post creates a tweet key),
inflating the versioned ``frontier_ts``, while RUBiS updates a bounded
key population in place.
"""

from repro.bench import cached_history, pick, write_result
from repro.core.aion import Aion, AionConfig
from repro.histories.stats import HistoryStats
from repro.online.clock import SimClock
from repro.online.collector import HistoryCollector
from repro.online.delays import NormalDelay
from repro.online.runner import GcPolicy, OnlineRunner
from repro.workloads import generate_rubis_history, generate_twitter_history


def _run():
    n = pick(3_000, 15_000, 100_000)
    rows = []
    for dataset, history in [
        ("RUBiS", cached_history(generate_rubis_history, n, seed=2323)),
        ("Twitter", cached_history(generate_twitter_history, n, seed=2324)),
    ]:
        stats = HistoryStats.of(history)
        schedule = HistoryCollector(
            batch_size=500, arrival_tps=10_000, delay_model=NormalDelay(100, 10), seed=20
        ).schedule(history)
        for policy in (GcPolicy.NO_GC, GcPolicy.CHECKING_GC):
            clock = SimClock()
            checker = Aion(AionConfig(timeout=5.0), clock=clock)
            report = OnlineRunner(
                checker,
                clock,
                gc_policy=policy,
                gc_threshold=max(1000, n // 5) if policy is not GcPolicy.NO_GC else 10**9,
            ).run(schedule)
            rows.append(
                {
                    "dataset": dataset,
                    "#keys": stats.n_keys,
                    "gc": policy.value,
                    "tps": round(report.overall_tps),
                    "violations": len(report.result.violations),
                }
            )
            checker.close()
    return rows


def test_fig23_si_datasets(run_once):
    rows = run_once(_run)
    print()
    print(
        write_result(
            "fig23",
            rows,
            title="Fig 23: Aion (SI) throughput on RUBiS vs Twitter",
            notes="Claim: Twitter's growing key population costs throughput "
            "relative to RUBiS's bounded keys.",
        )
    )
    for row in rows:
        assert row["violations"] == 0, row
    keys = {row["dataset"]: row["#keys"] for row in rows}
    assert keys["Twitter"] > keys["RUBiS"], keys  # the mechanism behind the claim
    tps = {
        (row["dataset"], row["gc"]): row["tps"] for row in rows
    }
    # Twitter never meaningfully faster than RUBiS.
    assert tps[("Twitter", "no-gc")] <= tps[("RUBiS", "no-gc")] * 1.25, tps
