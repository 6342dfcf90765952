"""Ablations of the design choices DESIGN.md calls out (beyond the paper).

1. **Step-③ re-check optimizations** (Algorithm 3): re-checking only the
   affected snapshot range vs. naively re-evaluating every pending read
   of each written key.  The paper asserts the optimizations matter; the
   ablation quantifies it on a hot-key (zipfian) workload where pending
   reads pile up on popular keys.
2. **GC recency margin**: the watermark slack that keeps slightly-late
   arrivals from touching spilled segments.  margin 0 forces a reload
   storm under asynchrony; a modest margin restores throughput.

Both ablations also assert verdict equality — an optimization that
changed verdicts would be a bug, not a trade-off.
"""

from repro.bench import cached_history, pick, write_result
from repro.core.aion import Aion, AionConfig
from repro.core.chronos import Chronos
from repro.core.reference import normalize_violations
from repro.online.clock import SimClock
from repro.online.collector import HistoryCollector
from repro.online.delays import NormalDelay
from repro.online.runner import GcPolicy, OnlineRunner
from repro.workloads import WorkloadSpec, generate_default_history


def _schedule(history, seed=42):
    return HistoryCollector(
        batch_size=500, arrival_tps=10_000, delay_model=NormalDelay(100, 10), seed=seed
    ).schedule(history)


def _run_recheck_ablation():
    n = pick(3_000, 15_000, 100_000)
    history = cached_history(generate_default_history, WorkloadSpec(
        n_sessions=24, n_transactions=n, ops_per_txn=8, n_keys=200,
        distribution="zipfian", seed=4242,
    ))
    schedule = _schedule(history)
    offline = normalize_violations(Chronos().check(history))
    rows = []
    for optimized in (True, False):
        clock = SimClock()
        checker = Aion(
            AionConfig(timeout=float("inf"), optimized_recheck=optimized), clock=clock
        )
        report = OnlineRunner(checker, clock).run(schedule)
        verdicts = normalize_violations(report.result)
        rows.append(
            {
                "recheck": "optimized (paper)" if optimized else "naive (ablation)",
                "tps": round(report.overall_tps),
                "verdicts_match_offline": verdicts == offline,
            }
        )
        checker.close()
    return rows


def _force_gc_margin(checker, margin):
    """Make ``checker.suggest_gc_ts`` use ``margin`` whatever its caller
    passes (the runner passes its own ``keep_recent=``); returns the list
    of margins the checker's own method then received."""
    received = []
    original = checker.suggest_gc_ts

    def spy(keep_recent):
        received.append(keep_recent)
        return original(keep_recent)

    checker.suggest_gc_ts = lambda keep_recent=None: spy(margin)  # type: ignore[method-assign]
    return received


def _run_gc_margin_ablation():
    n = pick(3_000, 15_000, 100_000)
    history = cached_history(generate_default_history, WorkloadSpec(
        n_sessions=24, n_transactions=n, ops_per_txn=8, n_keys=1000, seed=4243
    ))
    schedule = _schedule(history, seed=43)
    offline = normalize_violations(Chronos().check(history))
    rows = []
    threshold = max(500, n // 10)
    for margin in (1, threshold // 4, threshold // 2):
        clock = SimClock()
        checker = Aion(AionConfig(timeout=float("inf")), clock=clock)
        runner = OnlineRunner(
            checker, clock, gc_policy=GcPolicy.CHECKING_GC, gc_threshold=threshold
        )
        received = _force_gc_margin(checker, margin)
        report = runner.run(schedule)
        # Every GC decision of this row used this row's margin.
        assert received and set(received) == {margin}, (margin, sorted(set(received)))
        store = checker.spill_store
        rows.append(
            {
                "keep_recent": margin,
                "tps": round(report.overall_tps),
                "gc_cycles": report.n_gc_cycles,
                "reloads": store.reload_count if store is not None else 0,
                "verdicts_match_offline": normalize_violations(report.result) == offline,
            }
        )
        checker.close()
    return rows


def test_ablation_step3_recheck(run_once):
    rows = run_once(_run_recheck_ablation)
    print()
    print(
        write_result(
            "ablation_recheck",
            rows,
            title="Ablation: Algorithm 3 step-③ re-check optimizations",
            notes="Claim: range-bounded re-checking is faster than naive "
            "per-key re-evaluation, with identical verdicts.",
        )
    )
    by = {row["recheck"]: row for row in rows}
    assert all(row["verdicts_match_offline"] for row in rows), rows
    assert by["optimized (paper)"]["tps"] >= by["naive (ablation)"]["tps"], by


def test_ablation_gc_margin(run_once):
    rows = run_once(_run_gc_margin_ablation)
    print()
    print(
        write_result(
            "ablation_gc_margin",
            rows,
            title="Ablation: GC recency margin vs reload storms",
            notes="Claim: a zero margin forces spilled-segment reloads under "
            "asynchrony; a modest margin avoids them. Verdicts unchanged.",
        )
    )
    assert all(row["verdicts_match_offline"] for row in rows), rows
    # The tightest margin reloads at least as much as the widest.
    assert rows[0]["reloads"] >= rows[-1]["reloads"], rows
