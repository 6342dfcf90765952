"""Fig 7 — maximum memory usage of the five SI checkers.

Paper claims: Chronos's peak memory grows linearly with #txns and stays
lowest; PolySI/Viper/Emme-SI need far more for their polygraph / SSG
structures, ElleKV for its dependency graphs.  Memory is measured here
as the real allocation peak of the checking run (tracemalloc).
"""

from repro.baselines.elle import ElleKV
from repro.baselines.emme import EmmeSi
from repro.baselines.polysi import PolySi
from repro.baselines.viper import Viper
from repro.bench import cached_history, peak_alloc_mb, pick, write_result
from repro.core.chronos import Chronos
from repro.workloads import WorkloadSpec, generate_default_history


def _run_txn_sweep():
    rows = []
    for n in pick([500, 1_000, 2_000], [5_000, 20_000, 50_000], [50_000, 200_000, 1_000_000]):
        history = cached_history(generate_default_history, WorkloadSpec(
            n_sessions=16, n_transactions=n, ops_per_txn=15, n_keys=1000, seed=707
        ))
        row = {"#txns": n}
        for name, factory in [("ElleKV", ElleKV), ("Emme-SI", EmmeSi), ("Chronos", Chronos)]:
            _, peak = peak_alloc_mb(lambda f=factory: f().check(history))
            row[name] = round(peak, 2)
        rows.append(row)
    return rows


def _run_blackbox():
    # Black-box checkers only at a small size (their search explodes);
    # Chronos measured on the same history for the direct comparison.
    n = pick(100, 200, 500)
    small = cached_history(generate_default_history, WorkloadSpec(
        n_sessions=8,
        n_transactions=n,
        ops_per_txn=8,
        n_keys=500,
        distribution="uniform",
        seed=708,
    ))
    row = {"#txns": n}
    for name, factory in [("PolySI", PolySi), ("Viper", Viper), ("Chronos", Chronos)]:
        _, peak = peak_alloc_mb(lambda f=factory: f().check(small))
        row[name] = round(peak, 2)
    return [row]


def _run_dist_sweep():
    rows = []
    n = pick(1_500, 20_000, 100_000)
    for dist in ("uniform", "zipfian", "hotspot"):
        history = cached_history(generate_default_history, WorkloadSpec(
            n_sessions=16, n_transactions=n, ops_per_txn=15, n_keys=1000,
            distribution=dist, seed=709,
        ))
        row = {"distribution": dist}
        for name, factory in [("ElleKV", ElleKV), ("Emme-SI", EmmeSi), ("Chronos", Chronos)]:
            _, peak = peak_alloc_mb(lambda f=factory: f().check(history))
            row[name] = round(peak, 2)
        rows.append(row)
    return rows


def test_fig07a_memory_vs_txns(run_once):
    rows = run_once(_run_txn_sweep)
    print()
    print(
        write_result(
            "fig07a",
            rows,
            title="Fig 7a: peak checking memory (MiB) vs #txns",
            notes="Claim: Chronos lowest; graph/SSG-based checkers higher.",
        )
    )
    last = rows[-1]
    assert last["Chronos"] <= last["Emme-SI"], last
    assert last["Chronos"] <= last["ElleKV"] * 1.2, last
    # Linear-ish growth for Chronos.
    ratio = rows[-1]["Chronos"] / max(rows[0]["Chronos"], 1e-6)
    size_ratio = rows[-1]["#txns"] / rows[0]["#txns"]
    assert ratio < size_ratio * 3, (ratio, size_ratio)

    blackbox = _run_blackbox()
    print()
    print(
        write_result(
            "fig07a_blackbox",
            blackbox,
            title="Fig 7a (inset): black-box checker memory (MiB), small history",
            notes="Claim: the polygraph/search structures dwarf Chronos.",
        )
    )
    row = blackbox[0]
    assert row["Chronos"] <= row["PolySI"], row
    assert row["Chronos"] <= row["Viper"], row


def test_fig07b_memory_vs_distribution(run_once):
    rows = run_once(_run_dist_sweep)
    print()
    print(
        write_result(
            "fig07b",
            rows,
            title="Fig 7b: peak checking memory (MiB) vs key distribution",
            notes="Claim: stable across distributions.",
        )
    )
    peaks = [row["Chronos"] for row in rows]
    assert max(peaks) <= max(min(peaks) * 2.0, min(peaks) + 16), peaks
