"""Fig 25 (appendix) — online SER checking of non-conforming histories.

The paper feeds an *SI-level* history (500K transactions) to Aion-SER:
it detects all 11 839 violations at a speed comparable to violation-free
checking, the count is validated against Chronos-SER, and Cobra — by
contrast — terminates at the first violation.
"""

from repro.baselines.cobra import CobraChecker, CobraConfig
from repro.bench import cached_default_history, pick, write_result
from repro.core.aion_ser import AionSer
from repro.core.aion import AionConfig
from repro.core.chronos_ser import ChronosSer
from repro.core.reference import normalize_violations
from repro.online.clock import SimClock
from repro.online.collector import HistoryCollector
from repro.online.delays import NormalDelay
from repro.online.runner import GcPolicy, OnlineRunner


def _run():
    n = pick(4_000, 20_000, 500_000)
    # An SI history checked for SER: plenty of stale-snapshot reads.
    history = cached_default_history(
        n_sessions=24, n_transactions=n, ops_per_txn=8, n_keys=1000, seed=2525
    )
    schedule = HistoryCollector(
        batch_size=500, arrival_tps=10_000, delay_model=NormalDelay(100, 10), seed=21
    ).schedule(history)

    clock = SimClock()
    checker = AionSer(AionConfig(timeout=float("inf")), clock=clock)
    report = OnlineRunner(
        checker, clock, gc_policy=GcPolicy.CHECKING_GC, gc_threshold=max(1000, n // 5)
    ).run(schedule)
    aion_violations = normalize_violations(report.result)
    checker.close()

    offline = normalize_violations(ChronosSer().check(history))

    cobra = CobraChecker(CobraConfig(fence_every=20, round_size=2400))
    processed_by_cobra = 0
    for _, txn in schedule:
        cobra.receive(txn)
        processed_by_cobra += 1
        if cobra.stopped:
            break
    cobra.finalize()

    return {
        "n": n,
        "aion_tps": round(report.overall_tps),
        "aion_violations": len(aion_violations),
        "chronos_ser_violations": len(offline),
        "match": aion_violations == offline,
        "cobra_processed": processed_by_cobra,
        "cobra_stopped": cobra.stopped,
    }


def test_fig25_nonconforming(run_once):
    outcome = run_once(_run)
    rows = [
        {"metric": "history size", "value": outcome["n"]},
        {"metric": "Aion-SER throughput (TPS)", "value": outcome["aion_tps"]},
        {"metric": "Aion-SER violations", "value": outcome["aion_violations"]},
        {"metric": "Chronos-SER violations", "value": outcome["chronos_ser_violations"]},
        {"metric": "violation sets identical", "value": outcome["match"]},
        {"metric": "Cobra processed before stop", "value": outcome["cobra_processed"]},
        {"metric": "Cobra stopped at first violation", "value": outcome["cobra_stopped"]},
    ]
    print()
    print(
        write_result(
            "fig25",
            rows,
            title="Fig 25: online SER checking of an SI (non-conforming) history",
            notes="Claim: Aion-SER reports every violation and keeps going; "
            "the count matches Chronos-SER; Cobra stops at the first.",
        )
    )
    assert outcome["aion_violations"] > 0
    assert outcome["match"], "Aion-SER and Chronos-SER verdicts diverge"
    assert outcome["cobra_stopped"]
    assert outcome["cobra_processed"] < outcome["n"]
