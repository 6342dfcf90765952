"""Fig 22 (appendix) — Chronos runtime vs #sessions and read ratio.

Paper claim: runtime is stable across both parameters (they change
neither N nor M), for every GC strategy.
"""

import time

from repro.bench import cached_history, pick, write_result
from repro.core.chronos import Chronos, GcMode
from repro.workloads import WorkloadSpec, generate_default_history


def _seconds(history, gc_every):
    checker = Chronos(gc_every=gc_every, gc_mode=GcMode.FULL)
    t0 = time.perf_counter()
    assert checker.check(history).is_valid
    return round(time.perf_counter() - t0, 4)


def _run():
    n = pick(1_500, 20_000, 100_000)
    gc_settings = [(pick(300, 4000, 20_000), "gc-freq"), (None, "gc-inf")]
    session_rows = []
    for sessions in (10, 50, 100, 200):
        history = cached_history(generate_default_history, WorkloadSpec(
            n_sessions=sessions, n_transactions=n, ops_per_txn=15, n_keys=1000, seed=2222
        ))
        row = {"#sessions": sessions}
        for every, label in gc_settings:
            row[label] = _seconds(history, every)
        session_rows.append(row)
    read_rows = []
    for ratio in (0.1, 0.3, 0.5, 0.7, 0.9):
        history = cached_history(generate_default_history, WorkloadSpec(
            n_sessions=24, n_transactions=n, ops_per_txn=15, n_keys=1000,
            read_ratio=ratio, seed=2223,
        ))
        row = {"%reads": ratio}
        for every, label in gc_settings:
            row[label] = _seconds(history, every)
        read_rows.append(row)
    return session_rows, read_rows


def test_fig22_sessions_and_reads(run_once):
    session_rows, read_rows = run_once(_run)
    print()
    print(write_result("fig22a", session_rows, title="Fig 22a: Chronos runtime (s) vs #sessions"))
    print()
    print(write_result("fig22b", read_rows, title="Fig 22b: Chronos runtime (s) vs read ratio"))
    for rows, column in ((session_rows, "gc-inf"), (read_rows, "gc-inf")):
        times = [row[column] for row in rows]
        assert max(times) <= max(min(times) * 3.0, min(times) + 0.25), times
