"""Fig 8 — runtime decomposition of Chronos without GC.

Stages: *loading* (parsing the history file from disk), *sorting* (the
timestamp sort) and *checking* (the simulation pass).  Paper claims:
loading dominates, sorting is negligible, loading and checking grow
almost linearly with #txns and #ops/txn.
"""

import time

from repro.bench import cached_history, pick, write_result
from repro.core.chronos import Chronos
from repro.histories.serialization import load_history, save_history
from repro.workloads import WorkloadSpec, generate_default_history


def _decompose(history, tmp_path):
    path = tmp_path / "history.jsonl"
    save_history(history, path)
    t0 = time.perf_counter()
    loaded = load_history(path)
    loading = time.perf_counter() - t0
    checker = Chronos()
    result = checker.check(loaded)
    assert result.is_valid
    return {
        "loading": round(loading, 4),
        "sorting": round(checker.report.sort_seconds, 4),
        "checking": round(checker.report.check_seconds, 4),
    }


def _run_txns(tmp_path):
    rows = []
    for n in pick([1_000, 2_000, 4_000], [5_000, 20_000, 100_000], [100_000, 500_000, 1_000_000]):
        history = cached_history(generate_default_history, WorkloadSpec(
            n_sessions=24, n_transactions=n, ops_per_txn=15, n_keys=1000, seed=808
        ))
        rows.append({"#txns": n, **_decompose(history, tmp_path)})
    return rows


def _run_ops(tmp_path):
    rows = []
    n = pick(1_500, 20_000, 100_000)
    for ops in (5, 15, 30, 50):
        history = cached_history(generate_default_history, WorkloadSpec(
            n_sessions=24, n_transactions=n, ops_per_txn=ops, n_keys=1000, seed=809
        ))
        rows.append({"#ops/txn": ops, **_decompose(history, tmp_path)})
    return rows


def test_fig08a_decomposition_vs_txns(run_once, tmp_path):
    rows = run_once(_run_txns, tmp_path)
    print()
    print(
        write_result(
            "fig08a",
            rows,
            title="Fig 8a: Chronos stage times (s) vs #txns (no GC)",
            notes="Claim: loading dominates; sorting negligible; linear growth.",
        )
    )
    for row in rows:
        assert row["sorting"] <= max(row["loading"], row["checking"]), row
    assert rows[-1]["loading"] >= rows[-1]["checking"] * 0.3  # same order


def test_fig08b_decomposition_vs_ops(run_once, tmp_path):
    rows = run_once(_run_ops, tmp_path)
    print()
    print(write_result("fig08b", rows, title="Fig 8b: Chronos stage times (s) vs #ops/txn"))
    assert rows[-1]["checking"] >= rows[0]["checking"], rows
    assert rows[-1]["loading"] >= rows[0]["loading"], rows
