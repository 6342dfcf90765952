"""Fig 9 — runtime decomposition of Chronos under varying GC frequency.

Paper claims: frequent GC makes the GC stage the most expensive one; GC
time falls roughly linearly as the GC interval grows ("fast" in the
paper = GC after every batch; gc-∞ = never).
"""

import time

from repro.bench import cached_default_history, pick, write_result
from repro.core.chronos import Chronos, GcMode
from repro.histories.serialization import load_history, save_history


def _run(tmp_path):
    n = pick(4_000, 50_000, 1_000_000)
    history = cached_default_history(
        n_sessions=24, n_transactions=n, ops_per_txn=15, n_keys=1000, seed=909
    )
    path = tmp_path / "history.jsonl"
    save_history(history, path)

    intervals = pick(
        [100, 200, 500, 1000, None],
        [1_000, 2_000, 5_000, 10_000, None],
        [10_000, 20_000, 50_000, 100_000, None],
    )
    rows = []
    for every in intervals:
        t0 = time.perf_counter()
        loaded = load_history(path)
        loading = time.perf_counter() - t0
        checker = Chronos(gc_every=every, gc_mode=GcMode.FULL)
        result = checker.check_transactions(loaded.transactions)
        assert result.is_valid
        rows.append(
            {
                "gc_every": "inf" if every is None else every,
                "loading": round(loading, 4),
                "sorting": round(checker.report.sort_seconds, 4),
                "checking": round(checker.report.check_seconds, 4),
                "gc": round(checker.report.gc_seconds, 4),
                "gc_runs": checker.report.gc_runs,
            }
        )
    return rows


def test_fig09_gc_decomposition(run_once, tmp_path):
    rows = run_once(_run, tmp_path)
    print()
    print(
        write_result(
            "fig09",
            rows,
            title="Fig 9: Chronos stage times (s) vs GC frequency",
            notes="Claim: frequent GC dominates runtime; cost shrinks with the interval.",
        )
    )
    # GC time decreases (weakly) as the interval grows.
    gc_times = [row["gc"] for row in rows]
    assert gc_times[0] >= gc_times[-1], gc_times
    assert rows[-1]["gc_runs"] == 0
    assert rows[0]["gc_runs"] > rows[-2]["gc_runs"]
