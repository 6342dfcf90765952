"""Fig 5 — Chronos vs Emme-SI/ElleKV (key-value) and ElleList (lists).

Paper claims: Chronos checks a 100K-transaction key-value history in
about 2 s, roughly 10.5× faster than ElleKV; Emme-SI is far slower
because it builds the whole start-ordered serialization graph.  On list
histories Chronos is about 7.4× faster than ElleList.
"""

import time

from repro.baselines.elle import ElleKV, ElleList
from repro.baselines.emme import EmmeSi
from repro.bench import cached_history, pick, write_result
from repro.core.chronos import Chronos
from repro.workloads import WorkloadSpec, generate_default_history, generate_list_history


def _run_kv():
    sizes = pick([1_000, 2_500, 5_000], [5_000, 20_000, 50_000], [20_000, 50_000, 100_000])
    rows = []
    for n in sizes:
        history = cached_history(generate_default_history, WorkloadSpec(
            n_sessions=24, n_transactions=n, ops_per_txn=15, n_keys=1000, seed=505
        ))
        row = {"#txns": n}
        for name, factory in [("ElleKV", ElleKV), ("Emme-SI", EmmeSi), ("Chronos", Chronos)]:
            t0 = time.perf_counter()
            result = factory().check(history)
            row[name] = round(time.perf_counter() - t0, 4)
            assert result.is_valid, f"{name} false positive at {n} txns"
        rows.append(row)
    return rows


def _run_list():
    sizes = pick([500, 1_000, 2_000], [2_000, 5_000, 10_000], [2_000, 5_000, 10_000])
    rows = []
    for n in sizes:
        history = cached_history(generate_list_history, WorkloadSpec(
            n_sessions=12, n_transactions=n, ops_per_txn=8, n_keys=200, seed=506
        ))
        row = {"#txns": n}
        for name, factory in [("ElleList", ElleList), ("Chronos", Chronos)]:
            t0 = time.perf_counter()
            result = factory().check(history)
            row[name] = round(time.perf_counter() - t0, 4)
            assert result.is_valid, f"{name} false positive at {n} txns (list)"
        rows.append(row)
    return rows


def test_fig05a_kv_runtime(run_once):
    rows = run_once(_run_kv)
    print()
    print(
        write_result(
            "fig05a",
            rows,
            title="Fig 5a: runtime (s) on key-value histories",
            notes="Claim: Chronos fastest; Emme-SI pays for the whole-history graph.",
        )
    )
    last = rows[-1]
    assert last["Chronos"] <= last["ElleKV"], last
    assert last["Chronos"] <= last["Emme-SI"], last


def test_fig05b_list_runtime(run_once):
    rows = run_once(_run_list)
    print()
    print(
        write_result(
            "fig05b",
            rows,
            title="Fig 5b: runtime (s) on list histories",
            notes="Claim: Chronos beats ElleList; both near-linear.",
        )
    )
    last = rows[-1]
    assert last["Chronos"] <= last["ElleList"], last
