"""Fig 6 — Chronos runtime under GC strategies × workload parameters.

Paper claims: runtime grows almost linearly with #txns (a) and #ops/txn
(b), stays stable across #keys (c) and key distribution (d); more
frequent GC makes checking slower (gc-10k > gc-20k > gc-50k > gc-∞).
"""

import time

from repro.bench import cached_history, pick, write_result
from repro.core.chronos import Chronos, GcMode
from repro.workloads import WorkloadSpec, generate_default_history


def _check_seconds(history, gc_every):
    checker = Chronos(gc_every=gc_every, gc_mode=GcMode.FULL)
    t0 = time.perf_counter()
    result = checker.check(history)
    assert result.is_valid
    return time.perf_counter() - t0


_GC_LABELS = {None: "gc-inf"}


def _gc_settings():
    # Scaled analogue of gc-10k / 20k / 50k / ∞.
    small, mid, large = pick((200, 500, 2000), (2000, 5000, 20000), (10_000, 20_000, 50_000))
    return [(small, f"gc-{small}"), (mid, f"gc-{mid}"), (large, f"gc-{large}"), (None, "gc-inf")]


def _sweep_txns():
    rows = []
    for n in pick([1_000, 2_000, 4_000], [10_000, 50_000, 100_000], [100_000, 500_000, 1_000_000]):
        history = cached_history(generate_default_history, WorkloadSpec(
            n_sessions=24, n_transactions=n, ops_per_txn=15, n_keys=1000, seed=606
        ))
        row = {"#txns": n}
        for every, label in _gc_settings():
            row[label] = round(_check_seconds(history, every), 4)
        rows.append(row)
    return rows


def _sweep_ops():
    rows = []
    n = pick(1_500, 20_000, 100_000)
    for ops in (5, 15, 30):
        history = cached_history(generate_default_history, WorkloadSpec(
            n_sessions=24, n_transactions=n, ops_per_txn=ops, n_keys=1000, seed=607
        ))
        row = {"#ops/txn": ops}
        for every, label in _gc_settings():
            row[label] = round(_check_seconds(history, every), 4)
        rows.append(row)
    return rows


def _sweep_keys():
    rows = []
    n = pick(1_500, 20_000, 100_000)
    for keys in (200, 1000, 5000):
        history = cached_history(generate_default_history, WorkloadSpec(
            n_sessions=24, n_transactions=n, ops_per_txn=15, n_keys=keys, seed=608
        ))
        row = {"#keys": keys}
        for every, label in _gc_settings():
            row[label] = round(_check_seconds(history, every), 4)
        rows.append(row)
    return rows


def _sweep_dist():
    rows = []
    n = pick(1_500, 20_000, 100_000)
    for dist in ("uniform", "zipfian", "hotspot"):
        history = cached_history(generate_default_history, WorkloadSpec(
            n_sessions=24, n_transactions=n, ops_per_txn=15, n_keys=1000,
            distribution=dist, seed=609,
        ))
        row = {"distribution": dist}
        for every, label in _gc_settings():
            row[label] = round(_check_seconds(history, every), 4)
        rows.append(row)
    return rows


def test_fig06a_txns(run_once):
    rows = run_once(_sweep_txns)
    print()
    print(write_result("fig06a", rows, title="Fig 6a: Chronos runtime (s) vs #txns × GC"))
    inf_label = "gc-inf"
    # Near-linear growth without GC: ratio within 4x of size ratio.
    size_ratio = rows[-1]["#txns"] / rows[0]["#txns"]
    growth = rows[-1][inf_label] / max(rows[0][inf_label], 1e-9)
    assert growth < size_ratio * 4, (growth, size_ratio)
    # More frequent GC is never faster than gc-inf at the largest size.
    frequent_label = [label for _, label in _gc_settings()][0]
    assert rows[-1][frequent_label] >= rows[-1][inf_label] * 0.8


def test_fig06b_ops(run_once):
    rows = run_once(_sweep_ops)
    print()
    print(write_result("fig06b", rows, title="Fig 6b: Chronos runtime (s) vs #ops/txn × GC"))
    assert rows[-1]["gc-inf"] > rows[0]["gc-inf"] * 0.9  # grows with ops


def test_fig06c_keys(run_once):
    rows = run_once(_sweep_keys)
    print()
    print(write_result("fig06c", rows, title="Fig 6c: Chronos runtime (s) vs #keys × GC"))
    times = [row["gc-inf"] for row in rows]
    assert max(times) <= max(min(times) * 3.0, min(times) + 0.25), times  # stable


def test_fig06d_distribution(run_once):
    rows = run_once(_sweep_dist)
    print()
    print(write_result("fig06d", rows, title="Fig 6d: Chronos runtime (s) vs distribution × GC"))
    times = [row["gc-inf"] for row in rows]
    assert max(times) <= max(min(times) * 3.0, min(times) + 0.25), times  # stable
