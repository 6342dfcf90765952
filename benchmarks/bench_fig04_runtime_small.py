"""Fig 4 — runtime of five SI checkers on small key-value histories.

Paper claim: Chronos, ElleKV and Emme-SI significantly outperform the
black-box checkers PolySI and Viper, whose runtime grows super-linearly
with the number of transactions.  The paper's own axis stops at 3 000
transactions; the black-box search is the bottleneck at every scale.
"""

import time

from repro.baselines.elle import ElleKV
from repro.baselines.emme import EmmeSi
from repro.baselines.polysi import PolySi
from repro.baselines.viper import Viper
from repro.bench import cached_history, pick, write_result
from repro.core.chronos import Chronos
from repro.workloads import WorkloadSpec, generate_default_history


def _history(n):
    return cached_history(generate_default_history, WorkloadSpec(
        n_sessions=10,
        n_transactions=n,
        ops_per_txn=8,
        n_keys=max(200, n),  # spread keys so the pair count stays Fig-4 sized
        distribution="uniform",
        seed=404,
    ))


def _time(checker_factory, history):
    t0 = time.perf_counter()
    result = checker_factory().check(history)
    return time.perf_counter() - t0, result


def _run():
    sizes = pick([60, 120, 240], [100, 300, 600], [500, 1500, 3000])
    rows = []
    for n in sizes:
        history = _history(n)
        row = {"#txns": n}
        for name, factory in [
            ("PolySI", PolySi),
            ("Viper", Viper),
            ("ElleKV", ElleKV),
            ("Emme-SI", EmmeSi),
            ("Chronos", Chronos),
        ]:
            seconds, result = _time(factory, history)
            row[name] = round(seconds, 4)
            assert result.is_valid, f"{name} false positive on valid history ({n} txns)"
        rows.append(row)
    return rows


def test_fig04_runtime_comparison(run_once):
    rows = run_once(_run)
    print()
    print(
        write_result(
            "fig04",
            rows,
            title="Fig 4: SI checker runtime (s) on key-value histories",
            notes="Claim: black-box checkers (PolySI, Viper) grow super-linearly; "
            "Chronos / ElleKV / Emme-SI stay near-linear and far faster.",
        )
    )

    last = rows[-1]
    # Chronos beats every baseline at the largest size.
    for name in ("PolySI", "Viper", "ElleKV", "Emme-SI"):
        assert last["Chronos"] <= last[name] * 1.5, (name, last)
    # Black-box checkers grow super-linearly: runtime ratio beats the
    # size ratio between the smallest and largest points.
    size_ratio = rows[-1]["#txns"] / rows[0]["#txns"]
    for name in ("PolySI", "Viper"):
        growth = rows[-1][name] / max(rows[0][name], 1e-9)
        assert growth > size_ratio, (name, growth, size_ratio)
