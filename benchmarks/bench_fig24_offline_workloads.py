"""Fig 24 (appendix) — offline checking across application workloads.

Paper claim: the offline checker handles TPC-C (large composite-key
space) as easily as RUBiS and Twitter, because it maintains a single
global frontier instead of a versioned one; loading dominates.
"""

import time

from repro.bench import cached_history, pick, write_result
from repro.core.chronos import Chronos
from repro.histories.serialization import load_history, save_history
from repro.histories.stats import HistoryStats
from repro.workloads import generate_rubis_history, generate_tpcc_history, generate_twitter_history


def _run(tmp_path):
    n = pick(2_000, 10_000, 100_000)
    datasets = [
        ("TPCC", cached_history(generate_tpcc_history, n, seed=2424)),
        ("RUBiS", cached_history(generate_rubis_history, n, seed=2425)),
        ("Twitter", cached_history(generate_twitter_history, n, seed=2426)),
    ]
    rows = []
    for name, history in datasets:
        path = tmp_path / f"{name}.jsonl"
        save_history(history, path)
        t0 = time.perf_counter()
        loaded = load_history(path)
        loading = time.perf_counter() - t0
        checker = Chronos()
        result = checker.check(loaded)
        assert result.is_valid, (name, result.summary())
        stats = HistoryStats.of(history)
        rows.append(
            {
                "workload": name,
                "#keys": stats.n_keys,
                "loading": round(loading, 4),
                "sorting": round(checker.report.sort_seconds, 4),
                "checking": round(checker.report.check_seconds, 4),
            }
        )
    return rows


def test_fig24_offline_workloads(run_once, tmp_path):
    rows = run_once(_run, tmp_path)
    print()
    print(
        write_result(
            "fig24",
            rows,
            title="Fig 24: Chronos stage times (s) per application workload",
            notes="Claim: offline checking shrugs off TPC-C's huge composite "
            "keyspace; a single global frontier suffices.",
        )
    )
    tpcc = next(row for row in rows if row["workload"] == "TPCC")
    others = [row for row in rows if row["workload"] != "TPCC"]
    # TPC-C has by far the most keys yet comparable checking time.
    assert tpcc["#keys"] > max(row["#keys"] for row in others)
    assert tpcc["checking"] <= max(row["checking"] for row in others) * 4 + 0.2
