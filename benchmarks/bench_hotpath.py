#!/usr/bin/env python3
"""Hot-path micro-benchmarks for the ordered-index engine.

Every per-arrival step of Aion's Algorithm 3 bottoms out in the ordered
index layer: frontier ``floor_item`` lookups (step ①), NOCONFLICT
overlap queries (step ②), and EXT re-check sweeps via ``irange``
(step ③).  This suite times those primitives in isolation and then the
end-to-end Fig-12b single-shard batched ingestion they compose into:

- ``sorted_map``  — insert / floor / higher / set_and_higher / irange /
  pop_below throughput on a scrambled integer keyspace;
- ``interval_index`` — NOCONFLICT-shaped overlap queries against an
  index holding many *old, short* writer intervals below a recent
  active window (the pattern a long-running checker accumulates);
- ``ext_sweep``   — ExtReadIndex ``affected_by`` range sweeps;
- ``fig12b``      — the same single-shard batched arrival stream
  ``bench_sharded_scaling`` drains, reported as tps.

Results append to the ``BENCH_hotpath.json`` trajectory at the repo
root, so successive engine generations stay comparable::

    PYTHONPATH=src python benchmarks/bench_hotpath.py --label my-change

``--smoke`` runs small sizes plus a *deterministic* regression gate on
operation counts (entries scanned per overlap query, chunk-structure
invariants) instead of wall-clock numbers — structural slowdowns fail
on shared CI runners where timing gates cannot be trusted.  The batch
kernel's own op-count gates (counters derived from the ``Transaction``
views, and the same counters with instrumentation on) are tests:
``tests/test_batch_kernel.py``, the ``smoke_stream`` tests.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path
from random import Random

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "src") not in sys.path:  # direct `python benchmarks/...` runs
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.aion import Aion, AionConfig  # noqa: E402
from repro.core.versioned import ExtReadIndex  # noqa: E402
from repro.online.collector import HistoryCollector  # noqa: E402
from repro.online.delays import NormalDelay  # noqa: E402
from repro.util.intervals import Interval, IntervalIndex  # noqa: E402
from repro.util.sortedmap import SortedMap  # noqa: E402

TRAJECTORY_PATH = REPO_ROOT / "BENCH_hotpath.json"
BATCH = 500


def _best_of(repeats, fn):
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


# ----------------------------------------------------------------------
# Suite 1: raw sorted-map operations
# ----------------------------------------------------------------------

def bench_sorted_map(n, repeats):
    keys = list(range(n))
    Random(7).shuffle(keys)
    rows = {}

    def inserts():
        m = SortedMap()
        for k in keys:
            m[k] = k
        return m

    elapsed, m = _best_of(repeats, inserts)
    rows["insert_ops_s"] = round(n / elapsed)

    probes = [(k * 7919) % (2 * n) for k in range(n)]

    def floors():
        floor = m.floor_item
        for p in probes:
            floor(p)

    elapsed, _ = _best_of(repeats, floors)
    rows["floor_ops_s"] = round(n / elapsed)

    def highers():
        higher = m.higher_item
        for p in probes:
            higher(p)

    elapsed, _ = _best_of(repeats, highers)
    rows["higher_ops_s"] = round(n / elapsed)

    def fused():
        sm = SortedMap()
        sah = sm.set_and_higher
        for k in keys:
            sah(k, k)

    elapsed, _ = _best_of(repeats, fused)
    rows["set_and_higher_ops_s"] = round(n / elapsed)

    width = max(4, n // 100)
    starts = [(k * 4099) % n for k in range(512)]

    def sweeps():
        total = 0
        for s in starts:
            for _ in m.irange(s, s + width):
                total += 1
        return total

    elapsed, swept = _best_of(repeats, sweeps)
    rows["irange_items_s"] = round(swept / elapsed) if swept else 0

    def drain():
        sm = SortedMap()
        for k in keys:
            sm[k] = k
        step = max(1, n // 64)
        for cut in range(step, n + step, step):
            sm.pop_below(cut)
        return sm

    elapsed, drained = _best_of(repeats, drain)
    assert len(drained) == 0
    rows["pop_below_drain_ops_s"] = round(n / elapsed)
    return rows


# ----------------------------------------------------------------------
# Suite 2: interval overlap queries (NOCONFLICT shape)
# ----------------------------------------------------------------------

def _aged_interval_index(n_old, n_recent, base):
    """Many old short writer intervals below a recent active window."""
    index = IntervalIndex()
    for i in range(n_old):
        index.add(Interval(i, i + 1, owner=i))
    for i in range(n_recent):
        index.add(Interval(base + i, base + i + 40, owner=n_old + i))
    return index


def bench_interval_index(n_old, n_recent, n_queries, repeats):
    base = 10 * (n_old + n_recent)
    index = _aged_interval_index(n_old, n_recent, base)
    queries = [
        Interval(base + (i * 13) % n_recent, base + (i * 13) % n_recent + 25)
        for i in range(n_queries)
    ]

    def run():
        hits = 0
        overlapping = index.overlapping
        for q in queries:
            hits += len(overlapping(q))
        return hits

    # Count scanned entries once, deterministically (engines without the
    # counter — e.g. the skiplist generation — report None).
    before = getattr(index, "scan_steps", None)
    total_hits = run()
    scanned = None
    if before is not None:
        scanned = index.scan_steps - before

    elapsed, _ = _best_of(repeats, run)
    return {
        "n_intervals": n_old + n_recent,
        "queries_s": round(n_queries / elapsed),
        "hits_per_query": round(total_hits / n_queries, 2),
        "scanned_per_query": (
            round(scanned / n_queries, 2) if scanned is not None else None
        ),
    }


# ----------------------------------------------------------------------
# Suite 3: EXT re-check sweeps (step ③ shape)
# ----------------------------------------------------------------------

def bench_ext_sweep(n_keys, reads_per_key, repeats):
    index = ExtReadIndex()
    for k in range(n_keys):
        key = f"k{k}"
        for r in range(reads_per_key):
            index.add(key, r * 10, tid=k * reads_per_key + r, actual=r)

    window = 10 * max(2, reads_per_key // 16)
    sweeps = [
        (f"k{k}", s * 10, s * 10 + window)
        for k in range(n_keys)
        for s in range(0, reads_per_key, max(1, reads_per_key // 8))
    ]

    def run():
        total = 0
        affected = index.affected_by
        for key, lo, hi in sweeps:
            for _ in affected(key, lo, hi):
                total += 1
        return total

    elapsed, total = _best_of(repeats, run)
    return {
        "n_reads": n_keys * reads_per_key,
        "swept_reads_s": round(total / elapsed) if total else 0,
        "reads_per_sweep": round(total / len(sweeps), 2),
    }


# ----------------------------------------------------------------------
# Suite 4: end-to-end Fig-12b single-shard batched ingestion
# ----------------------------------------------------------------------

def bench_fig12b(n, repeats, *, sample_every=0):
    """``sample_every > 0`` runs the same stream with stage-timing
    instrumentation enabled at the daemon's default cadence, so the
    trajectory records what metrics cost on the end-to-end hot path."""
    from repro.bench import cached_default_history

    history = cached_default_history(
        n_sessions=24, n_transactions=n, ops_per_txn=8, n_keys=1000, seed=1213
    )
    collector = HistoryCollector(
        batch_size=BATCH, arrival_tps=10_000, delay_model=NormalDelay(100, 10), seed=12
    )
    txns = [txn for _, txn in collector.schedule(history)]

    def run():
        checker = Aion(AionConfig(timeout=float("inf")))
        if sample_every:
            checker.kernel_stats.sample_every = sample_every
        for offset in range(0, len(txns), BATCH):
            checker.receive_many(txns[offset : offset + BATCH])
        n_violations = len(checker.finalize().violations)
        checker.close()
        return n_violations

    elapsed, n_violations = _best_of(repeats, run)
    row = {
        "n_txns": len(txns),
        "tps": round(len(txns) / elapsed),
        "violations": n_violations,
    }
    if sample_every:
        row["sample_every"] = sample_every
    return row


# ----------------------------------------------------------------------
# Smoke gate: deterministic operation-count regression checks
# ----------------------------------------------------------------------

def run_smoke_gate():
    """Structural regression gate on operation counts, not wall time.

    Returns a list of failure strings (empty = pass).  Everything
    asserted here is deterministic: the same engine always scans the
    same entries and builds the same chunk structure, so the gate gives
    identical verdicts on a loaded CI runner and a quiet laptop.
    """
    failures = []

    # Gate 1: overlap queries against a window far above many old short
    # intervals must not touch the old intervals (reach-based pruning).
    n_old, n_recent = 5000, 64
    base = 10 * (n_old + n_recent)
    index = _aged_interval_index(n_old, n_recent, base)
    scan_before = getattr(index, "scan_steps", None)
    if scan_before is None:
        failures.append(
            "IntervalIndex has no scan_steps counter; the op-count gate "
            "requires the instrumented engine"
        )
        return failures
    hits = 0
    n_queries = 100
    for i in range(n_queries):
        q = Interval(base + (i * 13) % n_recent, base + (i * 13) % n_recent + 25)
        hits += len(index.overlapping(q))
    scanned = index.scan_steps - scan_before
    # Budget: every hit plus a per-query allowance covering the chunk
    # header probes (~11 chunks here) and partial-chunk slop.  The
    # unpruned scan would examine all 5064 intervals per query (~500k
    # total).
    budget = hits + n_queries * 24
    if scanned > budget:
        failures.append(
            f"overlap scan examined {scanned} entries for {hits} hits "
            f"(budget {budget}): reach pruning regressed"
        )

    # Gate 2: pop_ending_before must stop at the first surviving chunk:
    # collecting below the active window examines a bounded number of
    # surviving entries, not the whole index.
    gc_before = index.gc_scan_steps if hasattr(index, "gc_scan_steps") else None
    removed = index.pop_ending_before(base)
    if len(removed) != n_old:
        failures.append(
            f"pop_ending_before removed {len(removed)} intervals, expected {n_old}"
        )
    if gc_before is not None:
        gc_scanned = index.gc_scan_steps - gc_before
        if gc_scanned > 2048:  # one chunk of survivors, not 5000 corpses
            failures.append(
                f"pop_ending_before examined {gc_scanned} surviving entries "
                "(budget 2048): early-stop regressed"
            )

    # Gate 3: chunk-structure invariant — the two-level container keeps
    # chunk counts proportional to n / load, so a broken split/merge
    # policy (e.g. 1-element chunks) fails loudly.
    n = 50_000
    m = SortedMap()
    keys = list(range(n))
    Random(3).shuffle(keys)
    for k in keys:
        m[k] = k
    maxes = getattr(m, "_maxes", None)
    if maxes is not None:
        if len(maxes) > max(4, n // 256):
            failures.append(
                f"SortedMap fragmented into {len(maxes)} chunks for {n} keys"
            )
    if list(m.keys()) != list(range(n)):
        failures.append("SortedMap iteration order broken")
    if m.floor_item(n * 2) != (n - 1, n - 1) or m.floor_item(-1) is not None:
        failures.append("SortedMap floor_item broken at the boundaries")

    # Gate 4: pop_below drains in whole-chunk steps; the structure must
    # survive a full drain-and-reuse cycle.
    removed = m.pop_below(n // 2, inclusive=False)
    if len(removed) != n // 2 or len(m) != n - n // 2:
        failures.append("SortedMap pop_below removed the wrong prefix")
    m[0] = "again"
    if m.min_item() != (0, "again"):
        failures.append("SortedMap reuse after pop_below broken")

    return failures


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def run_all(*, smoke, n_fig12b, repeats):
    sizes = {
        "sorted_map_n": 10_000 if smoke else 50_000,
        "interval_old": 2_000 if smoke else 20_000,
        "interval_recent": 64 if smoke else 256,
        "interval_queries": 200 if smoke else 2_000,
        "ext_keys": 50 if smoke else 200,
        "ext_reads_per_key": 64 if smoke else 256,
        "fig12b_n": n_fig12b,
        "repeats": repeats,
    }
    results = {
        "sorted_map": bench_sorted_map(sizes["sorted_map_n"], repeats),
        "interval_index": bench_interval_index(
            sizes["interval_old"], sizes["interval_recent"],
            sizes["interval_queries"], repeats,
        ),
        "ext_sweep": bench_ext_sweep(
            sizes["ext_keys"], sizes["ext_reads_per_key"], repeats
        ),
        "fig12b": bench_fig12b(sizes["fig12b_n"], repeats),
        "fig12b_instrumented": bench_fig12b(
            sizes["fig12b_n"], repeats, sample_every=16
        ),
    }
    return sizes, results


def record_entry(label, sizes, results):
    if TRAJECTORY_PATH.exists():
        payload = json.loads(TRAJECTORY_PATH.read_text(encoding="utf-8"))
    else:
        payload = {"figure": "hotpath", "trajectory": []}
    payload["trajectory"].append(
        {
            "label": label,
            "recorded": time.strftime("%Y-%m-%d %H:%M:%S"),
            "python": platform.python_version(),
            "sizes": sizes,
            "results": results,
        }
    )
    TRAJECTORY_PATH.write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    return payload


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="unlabelled", help="trajectory entry label")
    parser.add_argument(
        "--smoke", action="store_true",
        help="small sizes + deterministic operation-count regression gate",
    )
    parser.add_argument("--n", type=int, default=None, help="fig12b transaction count")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--no-record", action="store_true", help="do not append to BENCH_hotpath.json"
    )
    args = parser.parse_args(argv)

    n_fig12b = args.n if args.n is not None else (2_000 if args.smoke else 20_000)
    sizes, results = run_all(smoke=args.smoke, n_fig12b=n_fig12b, repeats=args.repeats)

    for suite, rows in results.items():
        print(f"[{suite}]")
        for name, value in rows.items():
            print(f"  {name:>24}: {value}")
    if results["fig12b"]["violations"] != 0:
        print("FAIL: fig12b workload is clean but the checker reported violations")
        return 1

    if not args.smoke and not args.no_record:
        record_entry(args.label, sizes, results)
        print(f"recorded trajectory entry {args.label!r} -> {TRAJECTORY_PATH}")

    if args.smoke:
        failures = run_smoke_gate()
        if failures:
            print("OPERATION-COUNT GATE FAILED:")
            for failure in failures:
                print(f"  - {failure}")
            return 1
        print("operation-count gate: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
