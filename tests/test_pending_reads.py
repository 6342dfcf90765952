"""Every pending read and every version is stored once.

The read index holds reader tids, the tracker record owns the observed
value and decides every re-check from it, and the frontier keeps three
parallel columns per key.  What that must not change, and what it buys:

* **timer parity** — ordered reports, the full ``FlipFlopStats`` and the
  ``kernel.*`` counts of a faulted S (SI) and R (SER) stream whose EXT
  timers fire mid-stream equal the ones recorded **from the commit
  before the change**, when the index held ``(tid, actual)`` pairs and
  the verdict walk computed ``ok``: ``tests/data/timer_stream_golden.json``,
  written by running this file as a script against that commit's
  ``src/`` (see the bottom).  Its ``flipflop`` block was converted
  when the tracker stopped keeping a list entry per rectification and
  a set entry per flipped transaction: the rectify count, exact sum and
  Fig-13b histogram, and the flipped-tid count and digest, all computed
  from the lists the tracker kept until then;
* **one comparison rule** — a written ⊥v gives the offline verdict
  whichever of writer and reader arrives first;
* **bytes** — what a columnar stream leaves on the heap per resident
  transaction.
"""

import gc
import hashlib
import json
import tracemalloc
from pathlib import Path

import pytest

from repro.core.aion import Aion, AionConfig
from repro.core.aion_ser import AionSer
from repro.core.chronos import Chronos
from repro.core.chronos_ser import ChronosSer
from repro.core.colpack import ColumnarBatch, pack_columnar, unpack_columnar
from repro.core.common import BOTTOM
from repro.core.reference import normalize_violations
from repro.core.sharded import ShardedAion
from repro.db.engine import IsolationLevel
from repro.db.faults import HistoryFaultInjector
from repro.histories.model import History, Transaction
from repro.histories.ops import read, write
from repro.online.clock import SimClock
from repro.online.collector import HistoryCollector
from repro.online.delays import NormalDelay
from repro.workloads.generator import generate_default_history
from repro.workloads.spec import WorkloadSpec

from test_ext_status import collect_flipped_tids

GOLDEN = Path(__file__).parent / "data" / "timer_stream_golden.json"

# ----------------------------------------------------------------------
# Timer parity with the (tid, actual) index
# ----------------------------------------------------------------------

N_TXNS = 4000
#: Arrivals trail commits by 100 ± 10 ms, so a 20 ms deadline finalizes
#: a read while writers it depends on are still in flight: fed one
#: arrival at a time, 99 (R) and 162 (S) reads are reported that a longer
#: wait would have rectified, and later re-checks name pairs the tracker
#: has dropped.
TIMEOUT = 0.02
BATCH_SIZES = {"1": 1, "500": 500, "whole": None}


def timer_stream(level):
    """The ladder's S (or R) shape at 4,000 transactions: zipfian keys,
    a dozen injected faults, normally distributed arrival delays."""
    history = generate_default_history(
        WorkloadSpec(
            n_sessions=24, n_transactions=N_TXNS, ops_per_txn=8, n_keys=1000,
            distribution="zipfian",
            read_ratio=0.5 if level == "si" else 0.9,
            isolation=IsolationLevel.SI if level == "si" else IsolationLevel.SER,
            seed=2301,
        )
    )
    injector = HistoryFaultInjector(history, seed=23)
    injector.inject_mix(12)
    collector = HistoryCollector(
        batch_size=500, arrival_tps=10_000, delay_model=NormalDelay(100, 10), seed=9
    )
    return list(collector.schedule(injector.build()))


def _digest(items):
    return hashlib.sha256("\n".join(map(repr, items)).encode()).hexdigest()


def _report_row(violation):
    """One report as a plain tuple (field order, not dataclass repr)."""
    return (
        violation.axiom.value,
        violation.tid,
        getattr(violation, "key", ""),
        repr(getattr(violation, "expected", None)),
        repr(getattr(violation, "actual", None)),
        sorted(getattr(violation, "conflicting_tids", ())),
    )


def timer_run(make, schedule, batch_size, *, columnar=False):
    """Feed ``schedule`` in batches, the clock at each batch's last
    arrival; after the stream let half a timeout pass, ``poll``, then
    finalize.  Returns everything the change promises not to move."""
    clock = SimClock()
    checker = make(clock)
    flipped = collect_flipped_tids(checker)
    try:
        size = batch_size or len(schedule)
        fired_mid_stream = 0
        for lo in range(0, len(schedule), size):
            chunk = schedule[lo : lo + size]
            clock.advance_to(chunk[-1][0])
            txns = [txn for _, txn in chunk]
            checker.receive_many(ColumnarBatch.from_transactions(txns) if columnar else txns)
            fired_mid_stream = checker.flipflop_stats.n_finalized
        clock.advance(TIMEOUT / 2)
        checker.poll()
        reports = [_report_row(violation) for violation in checker.finalize().violations]
        stats = checker.flipflop_stats
        kernel = checker.kernel_stats.as_dict()
        counts = {}
        for report in reports:
            counts[report[0]] = counts.get(report[0], 0) + 1
        return {
            "reports": {
                "n": len(reports),
                "by_axiom": dict(sorted(counts.items())),
                "head": [list(report) for report in reports[:5]],
                "ordered_sha256": _digest(reports),
            },
            "flipflop": {
                "flips_per_pair": {
                    str(flips): count for flips, count in sorted(stats.flips_per_pair.items())
                },
                "flipped_tids": {
                    "n": stats.n_flipped_txns,
                    "sorted_sha256": _digest(sorted(flipped)),
                },
                "rectify": {
                    "n": stats.n_rectified,
                    "sum": stats.rectify_seconds,
                    "histogram": stats.rectify_histogram(),
                },
                "n_pairs": stats.n_pairs,
                "n_finalized": stats.n_finalized,
                "n_final_violations": stats.n_final_violations,
            },
            "finalized_mid_stream": fired_mid_stream,
            "kernel": {
                name: kernel[name]
                for name in (
                    "batches", "txns", "max_batch", "route_ops", "probe_reads",
                    "probe_writes", "verdict_tracks", "verdict_reevals", "verdict_conflicts",
                )
            },
        }
    finally:
        checker.close()


def _config():
    return AionConfig(timeout=TIMEOUT)


#: name -> (factory, stream the checker is held to)
TIMER_CHECKERS = {
    "aion": (lambda clock: Aion(_config(), clock=clock), "S"),
    "aion-ser": (lambda clock: AionSer(_config(), clock=clock), "R"),
    "sharded-x2-serial": (lambda clock: ShardedAion(_config(), n_shards=2, clock=clock), "S"),
}


@pytest.fixture(scope="module")
def schedules():
    return {"S": timer_stream("si"), "R": timer_stream("ser")}


@pytest.mark.parametrize("size", sorted(BATCH_SIZES))
@pytest.mark.parametrize("name", sorted(TIMER_CHECKERS))
def test_timer_stream_equals_the_pair_index(schedules, name, size):
    make, stream = TIMER_CHECKERS[name]
    golden = json.loads(GOLDEN.read_text())[stream][size]
    # One pass over decoded wire columns holds the codec round trip to
    # the same recording as the flattened lists.
    columnar = size != "1"
    assert timer_run(make, schedules[stream], BATCH_SIZES[size]) == golden
    if columnar:
        assert timer_run(make, schedules[stream], BATCH_SIZES[size], columnar=True) == golden
    # What the stream was built to exercise, read off the recording.
    if size != "whole":
        assert golden["finalized_mid_stream"] > golden["flipflop"]["n_pairs"] // 2
    if size == "1":
        assert golden["flipflop"]["n_final_violations"] > 90


# ----------------------------------------------------------------------
# A written ⊥v: one comparison rule, whatever the arrival order
# ----------------------------------------------------------------------

INF = AionConfig(timeout=float("inf"))

BOTTOM_CHECKERS = {
    "aion": (lambda: Aion(INF, clock=lambda: 0.0), "si"),
    "aion-ser": (lambda: AionSer(INF, clock=lambda: 0.0), "ser"),
    "sharded-x2-serial": (lambda: ShardedAion(INF, n_shards=2, clock=lambda: 0.0), "si"),
}


def bottom_history(observed):
    """``w = write(x, ⊥v)@[10,20]`` then ``r = read(x, observed)@[30,40]``."""
    return [
        Transaction(1, 1, 0, (write("x", BOTTOM),), 10, 20),
        Transaction(2, 2, 0, (read("x", observed),), 30, 40),
    ]


@pytest.mark.parametrize("columnar", [False, True], ids=["objects", "columnar"])
@pytest.mark.parametrize("writer_first", [True, False], ids=["writer-first", "reader-first"])
@pytest.mark.parametrize("name", sorted(BOTTOM_CHECKERS))
def test_written_bottom_verdict_is_arrival_order_independent(name, writer_first, columnar):
    make, level = BOTTOM_CHECKERS[name]
    offline = Chronos() if level == "si" else ChronosSer()
    for observed, n_ext in ((None, 0), ("v", 1)):
        txns = bottom_history(observed)
        expected = normalize_violations(offline.check(History(txns)))
        assert len(expected) == n_ext
        arrival = txns if writer_first else txns[::-1]
        checker = make()
        try:
            for txn in arrival:  # apart, so the late one is a re-check
                checker.receive_many(ColumnarBatch.from_transactions([txn]) if columnar else [txn])
            assert normalize_violations(checker.finalize()) == expected
        finally:
            checker.close()


# ----------------------------------------------------------------------
# Bytes per resident transaction
# ----------------------------------------------------------------------


def _traced_bytes_per_resident(batches):
    """Feed ``batches`` (an iterable, so decoding can happen inside the
    traced window) to an ``Aion`` that never times out; what
    ``receive_many`` leaves allocated per resident transaction."""
    checker = Aion(INF, clock=lambda: 0.0)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for batch in batches:
            checker.receive_many(batch)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    resident = checker.resident_txn_count
    assert resident >= N_TXNS - 10 and checker.flipflop_stats.n_finalized == 0
    checker.close()
    return retained / resident


def test_traced_bytes_per_resident_transaction(schedules):
    """The 4,000-transaction S stream, columnar, every verdict pending:
    what ``receive_many`` leaves allocated per resident transaction.
    With the pair index, the per-version payload tuple and the record's
    two unread runs this stream left ~1.41 KB; without them ~1.00 KB
    (the gate fails there); with a tracker record of one value and one
    state per read, the value shared with its version where the two
    are interchangeable, ~0.82 KB."""
    txns = [txn for _, txn in schedules["S"]]
    batches = [
        ColumnarBatch.from_transactions(txns[lo : lo + 500]) for lo in range(0, len(txns), 500)
    ]
    per_txn = _traced_bytes_per_resident(batches)
    assert per_txn <= 0.90 * 1024, f"{per_txn:.0f} B per transaction"


def test_traced_bytes_per_resident_transaction_off_the_wire(schedules):
    """The same stream packed as v2 submits and decoded inside the
    traced window with one key memo, as a daemon connection does: what
    the decoded keys and values add once the batch is gone.  ~1.40 KB
    with a key string per key per frame and every read's decoded value
    kept (the gate fails there), ~1.09 KB now."""
    txns = [txn for _, txn in schedules["S"]]
    blobs = [pack_columnar(txns[lo : lo + 500]) for lo in range(0, len(txns), 500)]
    memo = {}
    per_txn = _traced_bytes_per_resident(unpack_columnar(blob, memo=memo)[0] for blob in blobs)
    assert per_txn <= 1.15 * 1024, f"{per_txn:.0f} B per transaction"


if __name__ == "__main__":
    # PYTHONPATH=src:tests python tests/test_pending_reads.py re-records the
    # golden from this checkout (every checker held to its reference).
    recorded = {}
    for stream_name, level, reference in (("S", "si", "aion"), ("R", "ser", "aion-ser")):
        stream_schedule = timer_stream(level)
        recorded[stream_name] = {}
        for size_name, batch in BATCH_SIZES.items():
            run = timer_run(TIMER_CHECKERS[reference][0], stream_schedule, batch)
            for other, (factory, held_to) in TIMER_CHECKERS.items():
                if held_to == stream_name:
                    assert timer_run(factory, stream_schedule, batch) == run, (other, size_name)
            assert timer_run(
                TIMER_CHECKERS[reference][0], stream_schedule, batch, columnar=True
            ) == run
            recorded[stream_name][size_name] = run
    GOLDEN.write_text(json.dumps(recorded, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
