"""Differential and property-based tests: Aion ≡ Chronos.

Appendix D of the paper argues Aion's re-checking is correct by case
analysis.  These tests demonstrate it mechanically: for histories from
the SI engine — both clean and fault-injected — and for *arbitrary
arrival permutations* that respect session order, Aion's final verdicts
(with an infinite timeout, so nothing finalizes early) equal Chronos's
offline verdicts on the same transactions.
"""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aion import Aion, AionConfig
from repro.core.aion_ser import AionSer
from repro.core.chronos import Chronos
from repro.core.chronos_ser import ChronosSer
from repro.core.reference import ReferenceOnlineChecker, normalize_violations
from repro.db.faults import FaultInjector
from repro.histories.builder import HistoryBuilder
from repro.histories.ops import read, write
from repro.workloads.generator import generate_default_history
from repro.workloads.spec import WorkloadSpec


def session_respecting_shuffle(history, rng):
    """A random arrival order that keeps each session's order intact.

    Sessions deliver in *commit order* (what the collector observes),
    not in ``sno`` order — a fault that swaps sequence numbers must
    still be visible to the online checker.
    """
    queues = {
        sid: sorted(txns, key=lambda t: t.commit_ts)
        for sid, txns in history.sessions.items()
    }
    order = []
    sids = list(queues)
    while sids:
        sid = rng.choice(sids)
        order.append(queues[sid].pop(0))
        if not queues[sid]:
            sids.remove(sid)
    return order


def aion_verdicts(txns, *, mode="si", gc_every=None):
    if mode == "si":
        checker = Aion(AionConfig(timeout=float("inf")), clock=lambda: 0.0)
    else:
        checker = AionSer(AionConfig(timeout=float("inf")), clock=lambda: 0.0)
    for index, txn in enumerate(txns):
        checker.receive(txn)
        if gc_every is not None and index % gc_every == gc_every - 1:
            checker.collect_below(None)
    result = normalize_violations(checker.finalize())
    checker.close()
    return result


def small_history(seed, n=120, faults=0):
    history = generate_default_history(
        WorkloadSpec(n_sessions=5, n_transactions=n, ops_per_txn=6, n_keys=30, seed=seed)
    )
    if faults:
        injector = FaultInjector(history, seed=seed)
        injector.inject_mix(faults)
        history = injector.build()
    return history


def hot_key_history(n, seed):
    """One key that every transaction reads and then writes, so it holds
    ``n`` versions, writer intervals and pending reads.  Each
    transaction reads what the one before it wrote, except a seeded few
    that read a stale value or start early enough to overlap the writer
    before them."""
    rng = Random(seed)
    b = HistoryBuilder(keys=["x"])
    for i in range(n):
        start, seen = 10 * i + 11, i  # ⊥T wrote 0, transaction i writes i + 1
        roll = rng.random()
        if roll < 0.01:
            seen = i - 1
        elif roll < 0.02:
            start -= 13
        b.txn(sid=i % 8 + 1, start=start, commit=10 * i + 15, ops=[read("x", seen), write("x", i + 1)])
    return b.build()


@pytest.mark.parametrize("mode", ["si", "ser"])
def test_hot_key_matches_the_oracle(mode):
    """Past 4,096 entries per structure (where keys were once moved to a
    chunked container), in an arrival order shuffled across sessions:
    late versions, readers and intervals land deep inside the key's
    lists, and the verdicts still equal the offline oracle's."""
    history = hot_key_history(4200, seed=17)
    oracle = Chronos() if mode == "si" else ChronosSer()
    offline = normalize_violations(oracle.check(history))
    assert offline  # the stale reads and the overlaps are there to be found
    arrival = session_respecting_shuffle(history, Random(18))
    assert aion_verdicts(arrival, mode=mode) == offline


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), shuffle_seed=st.integers(0, 10_000))
def test_aion_matches_chronos_clean(seed, shuffle_seed):
    history = small_history(seed)
    offline = normalize_violations(Chronos().check(history))
    arrival = session_respecting_shuffle(history, Random(shuffle_seed))
    assert aion_verdicts(arrival) == offline


def split_session_verdicts(normalized, history):
    """Split a normalized verdict set into (non-session, violating sids).

    On timestamp-mutated histories Chronos (processing sessions in
    start-timestamp order) and Aion (arrival order) may attribute a
    SESSION violation to different members of the same broken session;
    a session is clean for one checker iff it is clean for the other,
    so the comparable quantity is the *set of violating sessions*.
    """
    others = {v for v in normalized if v[0] != "SESSION"}
    sids = {history.get(v[1]).sid for v in normalized if v[0] == "SESSION"}
    return others, sids


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    shuffle_seed=st.integers(0, 10_000),
    faults=st.integers(1, 8),
)
def test_aion_matches_chronos_faulted(seed, shuffle_seed, faults):
    history = small_history(seed, faults=faults)
    offline = split_session_verdicts(
        normalize_violations(Chronos().check(history)), history
    )
    arrival = session_respecting_shuffle(history, Random(shuffle_seed))
    online = split_session_verdicts(aion_verdicts(arrival), history)
    assert online == offline


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    shuffle_seed=st.integers(0, 10_000),
    gc_every=st.sampled_from([7, 25, 60]),
)
def test_aion_matches_chronos_with_gc(seed, shuffle_seed, gc_every):
    history = small_history(seed)
    offline = normalize_violations(Chronos().check(history))
    arrival = session_respecting_shuffle(history, Random(shuffle_seed))
    assert aion_verdicts(arrival, gc_every=gc_every) == offline


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), shuffle_seed=st.integers(0, 10_000))
def test_aion_ser_matches_chronos_ser(seed, shuffle_seed):
    history = small_history(seed)
    offline = normalize_violations(ChronosSer().check(history))
    arrival = session_respecting_shuffle(history, Random(shuffle_seed))
    assert aion_verdicts(arrival, mode="ser") == offline


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000), prefix=st.integers(5, 120))
def test_aion_prefix_matches_reference_replay(seed, prefix):
    """After ANY prefix of arrivals, Aion's tentative verdicts equal a
    full Chronos replay of the received transactions (the reference
    oracle from Appendix D)."""
    history = small_history(seed)
    arrival = session_respecting_shuffle(history, Random(seed))
    arrival = arrival[: min(prefix, len(arrival))]

    aion = Aion(AionConfig(timeout=float("inf")), clock=lambda: 0.0)
    reference = ReferenceOnlineChecker(mode="si")
    for txn in arrival:
        aion.receive(txn)
    reference.receive_many(arrival)
    got = normalize_violations(aion.finalize())
    expected = normalize_violations(reference.result())
    aion.close()
    assert got == expected


class TestAdversarialOrders:
    """Deterministic worst-case arrival orders."""

    @pytest.fixture(scope="class")
    def history(self):
        return small_history(4242, n=200)

    def test_reverse_commit_order(self, history):
        offline = normalize_violations(Chronos().check(history))
        # Reverse commit order is maximally out of order; sessions must
        # still be respected, so reverse the *interleaving* of sessions.
        queues = {sid: list(txns) for sid, txns in history.sessions.items()}
        order = []
        remaining = sorted(
            queues, key=lambda sid: -max(t.commit_ts for t in queues[sid])
        )
        # Round-robin from the latest-committing session backwards.
        while any(queues.values()):
            for sid in remaining:
                if queues[sid]:
                    order.append(queues[sid].pop(0))
        assert aion_verdicts(order) == offline

    def test_one_session_held_back_entirely(self, history):
        offline = normalize_violations(Chronos().check(history))
        sessions = history.sessions
        held_sid = max(sessions, key=lambda sid: len(sessions[sid]))
        order = [t for sid, txns in sessions.items() if sid != held_sid for t in txns]
        order += sessions[held_sid]
        assert aion_verdicts(order) == offline

    def test_interleave_two_halves(self, history):
        offline = normalize_violations(Chronos().check(history))
        commit_sorted = history.by_commit_ts()
        half = len(commit_sorted) // 2
        late, early = commit_sorted[half:], commit_sorted[:half]
        order_raw = [txn for pair in zip(late, early) for txn in pair]
        order_raw += commit_sorted[2 * half:]
        # Repair session order within the adversarial interleaving.
        seen = []
        by_session = {}
        for txn in order_raw:
            by_session.setdefault(txn.sid, []).append(txn)
        queues = {
            sid: sorted(txns, key=lambda t: t.sno) for sid, txns in by_session.items()
        }
        positions = {sid: 0 for sid in queues}
        for txn in order_raw:
            sid = txn.sid
            seen.append(queues[sid][positions[sid]])
            positions[sid] += 1
        assert aion_verdicts(seen) == offline
