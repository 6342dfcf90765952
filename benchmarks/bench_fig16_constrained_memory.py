"""Fig 16 — Aion under a hard memory budget.

Paper setup: GC triggers when memory exceeds 700 MB on a 100K-txn
workload; memory then oscillates between ~400 and 700 MB and checking
completes.  Reproduced at laptop scale with a proportionally smaller cap
over the checker's estimated live bytes.
"""

from repro.bench import cached_history, format_series, pick, write_result
from repro.core.aion import Aion, AionConfig
from repro.online.clock import SimClock
from repro.online.collector import HistoryCollector
from repro.online.delays import NormalDelay
from repro.online.runner import GcPolicy, OnlineRunner
from repro.workloads import WorkloadSpec, generate_default_history


def _run():
    n = pick(3_000, 20_000, 100_000)
    history = cached_history(generate_default_history, WorkloadSpec(
        n_sessions=24, n_transactions=n, ops_per_txn=8, n_keys=1000, seed=1616
    ))
    schedule = HistoryCollector(
        batch_size=500, arrival_tps=10_000, delay_model=NormalDelay(100, 10), seed=17
    ).schedule(history)

    # Establish the uncapped peak, then cap at roughly 60% of it.
    clock = SimClock()
    probe = Aion(AionConfig(timeout=5.0), clock=clock)
    baseline = OnlineRunner(probe, clock, memory_sample_every=max(200, n // 20)).run(schedule)
    peak = max(size for _, size in baseline.memory_samples)
    probe.close()

    cap = int(peak * 0.6)
    clock = SimClock()
    checker = Aion(AionConfig(timeout=5.0), clock=clock)
    report = OnlineRunner(
        checker,
        clock,
        gc_policy=GcPolicy.MEMORY_CAP,
        max_bytes=cap,
        memory_sample_every=max(200, n // 40),
    ).run(schedule)
    checker.close()
    return {
        "uncapped_peak": peak,
        "cap": cap,
        "samples": report.memory_samples,
        "gc_cycles": report.n_gc_cycles,
        "violations": len(report.result.violations),
        "n": n,
    }


def test_fig16_constrained_memory(run_once):
    outcome = run_once(_run)
    samples = outcome["samples"]
    rows = [
        {
            "metric": "uncapped peak (MiB)",
            "value": round(outcome["uncapped_peak"] / 2**20, 2),
        },
        {"metric": "cap (MiB)", "value": round(outcome["cap"] / 2**20, 2)},
        {
            "metric": "capped peak (MiB)",
            "value": round(max(size for _, size in samples) / 2**20, 2),
        },
        {"metric": "gc cycles", "value": outcome["gc_cycles"]},
        {"metric": "violations", "value": outcome["violations"]},
    ]
    print()
    print(format_series(
        [(t, size / 2**20) for t, size in samples[:12]],
        label="Fig 16 (first samples: virtual seconds, MiB)",
    ))
    print()
    print(
        write_result(
            "fig16",
            rows,
            title="Fig 16: Aion memory under a hard cap",
            notes="Claim: every GC cycle brings memory back under the cap (between "
            "cycles it overshoots by up to one check interval, never past 1.2x the "
            "uncapped peak) and checking completes without false verdicts.",
        )
    )
    assert outcome["violations"] == 0
    assert outcome["gc_cycles"] >= 1
    capped_peak = max(size for _, size in samples)
    # Post-GC samples fall back under the cap (oscillation, not growth).
    assert min(size for _, size in samples[len(samples) // 2:]) < outcome["cap"], samples[-5:]
    # The cap bounds memory up to one check interval of slack.
    assert capped_peak <= outcome["uncapped_peak"] * 1.2
