"""The host collector stays out of checker work (``repro.util.hostgc``).

Three things are pinned: no collector pass *starts* inside the kernel, a
GC cycle or finalization, whatever the caller's collector settings, and
verdicts do not depend on them; the pause leaves the process-global
collector switch exactly as it found it; and — the reason the pause is
cheap to live with — little of what a batch allocates is still a
tracked container once the batch is over.
"""

import gc
import sys
import threading
from random import Random

import pytest

from repro.core.aion import Aion, AionConfig
from repro.core.aion_ser import AionSer
from repro.core.sharded import ShardedAion
from repro.histories.model import Transaction
from repro.histories.ops import append, read
from repro.online.clock import SimClock
from repro.util.hostgc import paused
from repro.util.sizeof import deep_sizeof
from repro.workloads.generator import generate_default_history
from repro.workloads.spec import WorkloadSpec

from test_differential import session_respecting_shuffle, small_history

BATCH = 100
GC_EVERY = 4  # batches between collect_below cycles

KINDS = {
    "aion": lambda clock: Aion(AionConfig(timeout=5.0), clock=clock),
    "ser": lambda clock: AionSer(AionConfig(timeout=5.0), clock=clock),
    "sharded": lambda clock: ShardedAion(AionConfig(timeout=5.0), n_shards=2, clock=clock),
}


@pytest.fixture(scope="module")
def arrival():
    history = small_history(4242, n=2000, faults=6)
    return session_respecting_shuffle(history, Random(7))


@pytest.fixture(autouse=True)
def collector_as_found():
    """Every test here starts with the collector on and default
    thresholds, and must not leak anything else into the suite."""
    enabled, thresholds = gc.isenabled(), gc.get_threshold()
    gc.enable()
    yield
    gc.set_threshold(*thresholds)
    gc.enable() if enabled else gc.disable()


class PassCounter:
    """Counts collector passes that start while :attr:`inside` is set."""

    def __init__(self):
        self.inside = False
        self.started_inside = 0
        self.started_between = 0

    def __call__(self, phase, info):
        if phase == "start":
            if self.inside:
                self.started_inside += 1
            else:
                self.started_between += 1

    def call(self, fn, *args):
        self.inside = True
        try:
            return fn(*args)
        finally:
            self.inside = False


def drive(kind, arrival, counter=None):
    """The stream in 100-transaction batches, one virtual second apart
    (so EXT timers fire mid-stream), a GC cycle every fourth batch;
    returns the ordered report."""
    call = counter.call if counter is not None else (lambda fn, *args: fn(*args))
    clock = SimClock()
    checker = KINDS[kind](clock)
    try:
        for index, offset in enumerate(range(0, len(arrival), BATCH)):
            clock.advance(1.0)
            call(checker.receive_many, arrival[offset : offset + BATCH])
            if index % GC_EVERY == GC_EVERY - 1:
                call(checker.collect_below, checker.suggest_gc_ts(keep_recent=150))
        return list(call(checker.finalize).violations)
    finally:
        checker.close()


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_no_collection_starts_inside_checker_work(kind, arrival):
    counter = PassCounter()
    gc.callbacks.append(counter)
    try:
        report = drive(kind, arrival, counter)
    finally:
        gc.callbacks.remove(counter)
    assert report, "the faulted stream must produce verdicts"
    assert counter.started_inside == 0
    # The passes were deferred, not lost: they ran between the calls.
    assert counter.started_between > 0


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_report_does_not_depend_on_the_collector(kind, arrival):
    expected = drive(kind, arrival)
    gc.disable()
    assert drive(kind, arrival) == expected
    assert not gc.isenabled()
    gc.enable()
    gc.set_threshold(1, 1, 1)  # a pass at every allocation the pause lets through
    assert drive(kind, arrival) == expected


class TestSwitchIsLeftAsFound:
    def test_nesting_and_exceptions(self):
        with paused():
            assert not gc.isenabled()
            with paused():
                assert not gc.isenabled()
            assert not gc.isenabled()  # the inner scope did not own the switch
        assert gc.isenabled()
        with pytest.raises(KeyError):
            with paused():
                raise KeyError
        assert gc.isenabled()

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_rejected_batch(self, kind, arrival):
        checker = KINDS[kind](SimClock())
        try:
            bad = Transaction(10**9, 0, 0, [read("x", None), append("x", 1)], 1, 2)
            with pytest.raises(ValueError):
                checker.receive_many(arrival[:10] + [bad])
            assert gc.isenabled()
        finally:
            checker.close()

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_caller_entered_with_it_off(self, kind, arrival):
        gc.disable()
        checker = KINDS[kind](SimClock())
        try:
            checker.receive_many(arrival[:BATCH])
            assert not gc.isenabled()
            checker.collect_below(None)
            assert not gc.isenabled()
            checker.poll()
            checker.finalize()
            assert not gc.isenabled()
        finally:
            checker.close()

    def test_two_threads_interleaving_two_checkers(self, arrival):
        """Scopes of different threads overlap arbitrarily; whoever
        leaves last need not be whoever entered first.  The switch must
        still end on, and neither checker's verdicts may change."""
        size = len(arrival) // 200
        expected = {}
        for kind in ("aion", "ser"):
            checker = KINDS[kind](lambda: 0.0)
            for offset in range(0, 200 * size, size):
                checker.receive_many(arrival[offset : offset + size])
            expected[kind] = list(checker.finalize().violations)
            checker.close()

        got = {}

        def worker(kind):
            checker = KINDS[kind](lambda: 0.0)
            for offset in range(0, 200 * size, size):
                checker.receive_many(arrival[offset : offset + size])
                checker.poll()
            got[kind] = list(checker.finalize().violations)
            checker.close()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(kind,)) for kind in ("aion", "ser")]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert gc.isenabled()
        assert got == expected


def test_little_of_a_batch_outlives_it():
    """A deterministic allocation gate, in the spirit of the op-count
    gates: what a stream leaves behind for the collector to walk for ever
    after.  The stream is Fig-12b-shaped (8 ops per transaction, half of
    them reads) over 200 keys, so the per-key structures' fixed share is
    about what it is on the ladder's 20k transactions over 1000.  Parent
    commit: 6.1 tracked containers per transaction (a list per external
    read, a pair list per transaction) and 384 B of tracker per pending
    pair; here 2.0 and 220 B."""
    history = generate_default_history(
        WorkloadSpec(
            n_sessions=24, n_transactions=2000, ops_per_txn=8, n_keys=200,
            distribution="zipfian", read_ratio=0.5, seed=1213,
        )
    )
    stream = session_respecting_shuffle(history, Random(1213))

    def feed():
        checker = Aion(AionConfig(timeout=float("inf")), clock=lambda: 0.0)
        for offset in range(0, len(stream), BATCH):
            checker.receive_many(stream[offset : offset + BATCH])
        return checker

    feed().close()  # fill the transactions' lazy caches: they are the input's, not the checker's
    gc.collect()
    before = len(gc.get_objects())
    checker = feed()
    try:
        gc.collect()
        retained = len(gc.get_objects()) - before
        stats = checker.flipflop_stats
        pending = stats.n_pairs - stats.n_finalized
        assert pending > 3 * len(stream), "the stream must leave reads pending"
        assert retained / len(stream) <= 3.0
        assert deep_sizeof(checker._ext) / pending <= 250
    finally:
        checker.close()
