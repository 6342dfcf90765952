"""The online checkers keep no transactions.

Two properties of the resident *index* (``core/spill.py::SpillingGc``)
that replaced the resident store:

* **retention** — once ``receive_many`` returns, nothing reachable from a
  checker refers to the arrived ``ColumnarBatch``, to any of its columns
  or to an arrived ``Transaction``, while the arrivals' EXT verdicts are
  still pending;
* **GC parity** — the GC sequence of an out-of-order stream (per cycle
  the requested / effective watermark and the three evicted counts, the
  resident count after every batch, the spilled segments' ranges) equals
  the one recorded **from the commit before the index existed**, when
  ``_resident`` was a ``tid → Transaction`` dict beside a ``SortedMap``:
  ``tests/data/gc_sequence_golden.json``, written by running this file as
  a script against that commit's ``src/`` (see the bottom).
"""

import gc
import json
import weakref
from pathlib import Path

import pytest

from repro.core.aion import Aion, AionConfig
from repro.core.aion_ser import AionSer
from repro.core.chronos import Chronos
from repro.core.chronos_ser import ChronosSer
from repro.core.colpack import ColumnarBatch
from repro.core.reference import normalize_violations
from repro.core.sharded import ShardedAion
from repro.db.faults import HistoryFaultInjector
from repro.histories.model import History, Transaction
from repro.online.collector import HistoryCollector
from repro.online.delays import NormalDelay
from repro.workloads.generator import generate_default_history
from repro.workloads.spec import WorkloadSpec

from test_differential import split_session_verdicts

GOLDEN = Path(__file__).parent / "data" / "gc_sequence_golden.json"
INF = AionConfig(timeout=float("inf"))

CHECKERS = {
    "aion": (lambda: Aion(INF, clock=lambda: 0.0), "si"),
    "aion-ser": (lambda: AionSer(INF, clock=lambda: 0.0), "ser"),
    "sharded-x2": (
        lambda: ShardedAion(INF, n_shards=2, executor="serial", clock=lambda: 0.0),
        "si",
    ),
}


# ----------------------------------------------------------------------
# Retention
# ----------------------------------------------------------------------


class WeakTransaction(Transaction):
    __slots__ = ("__weakref__",)


class WeakBatch(ColumnarBatch):
    __slots__ = ("__weakref__",)


class WeakList(list):
    """A column a weak reference can watch."""


def weak_batch(txns):
    """``txns`` as a columnar batch that can be watched, with its list
    columns (``op_kinds`` is ``bytes``, which takes no weak reference)."""
    flat = ColumnarBatch.from_transactions(txns)
    columns = [getattr(flat, name) for name in ColumnarBatch.__slots__]
    columns = [WeakList(column) if isinstance(column, list) else column for column in columns]
    return WeakBatch(*columns), [column for column in columns if isinstance(column, WeakList)]


@pytest.mark.parametrize("name", sorted(CHECKERS))
def test_no_arrival_outlives_receive_many(name):
    make, level = CHECKERS[name]
    history = generate_default_history(
        WorkloadSpec(n_sessions=6, n_transactions=300, ops_per_txn=6, n_keys=40, seed=2212)
    )
    injector = HistoryFaultInjector(history, seed=5)
    injector.inject_ext()
    injector.inject_noconflict()
    history = injector.build()
    offline = normalize_violations((Chronos() if level == "si" else ChronosSer()).check(history))
    arrival = history.by_commit_ts()

    checker = make()
    try:
        watched = []
        for lo in range(0, len(arrival), 60):
            chunk = arrival[lo : lo + 60]
            if (lo // 60) % 2 == 0:
                batch, columns = weak_batch(chunk)
                watched += [weakref.ref(batch), *map(weakref.ref, columns)]
                checker.receive_many(batch)
                del batch, columns
            else:
                objects = [
                    WeakTransaction(t.tid, t.sid, t.sno, t.ops, t.start_ts, t.commit_ts)
                    for t in chunk
                ]
                watched += map(weakref.ref, objects)
                checker.receive_many(objects)
                del objects
        gc.collect()
        stats = checker.flipflop_stats
        assert stats.n_pairs > 0 and stats.n_finalized == 0  # every verdict still pending
        assert checker.resident_txn_count == len(arrival)
        assert [ref() for ref in watched if ref() is not None] == []
        online = normalize_violations(checker.finalize())
        assert split_session_verdicts(online, history) == split_session_verdicts(offline, history)
        assert any(verdict[0] == "EXT" for verdict in online)
    finally:
        checker.close()


# ----------------------------------------------------------------------
# GC parity with the resident store
# ----------------------------------------------------------------------

BATCH = 100
GC_THRESHOLD = 600
GC_KEEP_RECENT = 300


def gc_stream():
    """An S-shaped arrival stream (normal delays over a batch cadence: a
    third of the arrivals are out of commit order), with one Eq. 1
    offender (``start_ts > commit_ts``: rejected by the SI checkers, so
    never resident), one tid delivered twice, two batches apart, and one
    session held back for a thousand arrivals — by then far below the
    watermark, so its delivery reloads every segment and the next cycle
    evicts the reloaded state again."""
    history = generate_default_history(
        WorkloadSpec(n_sessions=12, n_transactions=3000, ops_per_txn=8, n_keys=200, seed=2211)
    )
    txns = history.by_commit_ts()
    victim = txns[1234]
    txns[1234] = Transaction(
        victim.tid, victim.sid, victim.sno, victim.ops, victim.commit_ts + 5, victim.commit_ts
    )
    collector = HistoryCollector(
        batch_size=BATCH, arrival_tps=10_000, delay_model=NormalDelay(100, 10), seed=7
    )
    arrival = [txn for _, txn in collector.schedule(History(txns))]
    held_sid = arrival[1000].sid
    window = arrival[1000:2000]
    arrival[1000:2000] = [t for t in window if t.sid != held_sid] + [
        t for t in window if t.sid == held_sid
    ]
    arrival.insert(1750, arrival[1750 - 2 * BATCH])
    return arrival


def gc_sequence(make, arrival, *, columnar):
    """Drive ``arrival`` in batches with the daemon's GC policy (collect
    below ``suggest_gc_ts`` whenever the threshold is resident), then one
    collect-everything cycle; returns what the GC paths showed."""
    checker = make()
    try:
        resident, cycles = [], []

        def cycle(ts):
            report = checker.collect_below(ts)
            cycles.append(
                {
                    "after_batch": len(resident),
                    "report": [
                        report.requested_ts,
                        report.effective_ts,
                        report.evicted_versions,
                        report.evicted_intervals,
                        report.evicted_txns,
                    ],
                    "resident_after": checker.resident_txn_count,
                    "segments": [
                        [segment.min_ts, segment.max_ts]
                        for segment in checker.spill_store._segments
                    ],
                }
            )

        for lo in range(0, len(arrival), BATCH):
            chunk = arrival[lo : lo + BATCH]
            checker.receive_many(ColumnarBatch.from_transactions(chunk) if columnar else chunk)
            resident.append(checker.resident_txn_count)
            if checker.resident_txn_count >= GC_THRESHOLD:
                target = checker.suggest_gc_ts(keep_recent=GC_KEEP_RECENT)
                if target is not None:
                    cycle(target)
        safe_ts = checker.gc_safe_ts()
        cycle(None)
        violations = {}
        for verdict in normalize_violations(checker.finalize()):
            violations[verdict[0]] = violations.get(verdict[0], 0) + 1
        return {
            "resident_after_batch": resident,
            "cycles": cycles,
            "final_safe_ts": safe_ts,
            "reloads": checker.spill_store.reload_count,
            "processed": checker.processed,
            "violations": dict(sorted(violations.items())),
        }
    finally:
        checker.close()


@pytest.fixture(scope="module")
def arrival():
    return gc_stream()


@pytest.mark.parametrize("columnar", [False, True], ids=["objects", "columnar"])
@pytest.mark.parametrize("name", sorted(CHECKERS))
def test_gc_sequence_equals_the_resident_store(arrival, name, columnar):
    golden = json.loads(GOLDEN.read_text())[name]
    observed = gc_sequence(CHECKERS[name][0], arrival, columnar=columnar)
    assert observed == golden
    # What the stream was built to exercise, read off the recording.
    assert len(golden["cycles"]) >= 8 and golden["reloads"] >= 2
    n_distinct = len({txn.tid for txn in arrival})
    assert len(arrival) == n_distinct + 1  # the retransmission ...
    released = sum(cycle["report"][4] for cycle in golden["cycles"])
    rejected = 0 if name == "aion-ser" else 1  # ... and the Eq. 1 offender
    assert released == n_distinct - rejected  # ... each counted once, or not at all
    assert golden["cycles"][-1]["resident_after"] == 0


if __name__ == "__main__":
    # PYTHONPATH=<checkout of the parent commit>/src:tests python tests/test_resident_index.py
    stream = gc_stream()
    recorded = {}
    for checker_name, (factory, _) in sorted(CHECKERS.items()):
        recorded[checker_name] = gc_sequence(factory, stream, columnar=False)
        assert gc_sequence(factory, stream, columnar=True) == recorded[checker_name]
    GOLDEN.write_text(json.dumps(recorded, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
