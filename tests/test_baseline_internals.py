"""Deeper unit tests for baseline internals: Cobra rounds/frontier,
Emme version recovery, the reference oracle, and violation records."""

import pytest

from repro.baselines.cobra import CobraChecker, CobraConfig
from repro.baselines.depgraph import DependencyGraph
from repro.baselines.emme import EmmeSer, recover_version_order
from repro.core.reference import ReferenceOnlineChecker, normalize_violations
from repro.core.violations import (
    Axiom,
    CheckResult,
    ConflictViolation,
    ExtViolation,
    SessionViolation,
)
from repro.histories.builder import HistoryBuilder
from repro.histories.ops import read, write


class TestCobraInternals:
    def _serial_writers(self, n, key="x"):
        b = HistoryBuilder(keys=[key])
        for i in range(n):
            b.txn(sid=i + 1, ops=[write(key, i + 1)])
        return b.build().by_commit_ts()

    def test_round_boundary_flushes(self):
        cobra = CobraChecker(CobraConfig(fence_every=2, round_size=4))
        for txn in self._serial_writers(9):
            cobra.receive(txn)
        assert cobra.rounds_checked == 2  # two full rounds of 4
        cobra.finalize()
        assert cobra.rounds_checked == 3  # partial round flushed

    def test_frontier_carries_last_writer_across_rounds(self):
        b = HistoryBuilder(keys=["x"])
        b.txn(sid=1, ops=[write("x", 1)])
        b.txn(sid=2, ops=[write("x", 2)])
        b.txn(sid=3, ops=[read("x", 2)])   # round 2 reads round 1's winner
        cobra = CobraChecker(CobraConfig(fence_every=1, round_size=3))
        for txn in b.build().by_commit_ts():
            cobra.receive(txn)
        assert cobra.finalize().is_valid

    def test_read_of_unknown_value_stops(self):
        b = HistoryBuilder(keys=["x"])
        b.txn(sid=1, ops=[read("x", 424242)])
        cobra = CobraChecker(CobraConfig(fence_every=1, round_size=10))
        for txn in b.build().by_commit_ts():
            cobra.receive(txn)
        cobra.finalize()
        assert cobra.stopped
        assert cobra.result.by_axiom(Axiom.EXT)

    def test_same_segment_pairs_become_choices(self):
        # Large fence interval: all writers share one segment.
        cobra = CobraChecker(CobraConfig(fence_every=1000, round_size=6))
        for txn in self._serial_writers(6):
            cobra.receive(txn)
        assert cobra.finalize().is_valid

    def test_initial_value_reads_ok_across_rounds(self):
        b = HistoryBuilder(keys=["x", "y"])
        b.txn(sid=1, ops=[read("x", 0)])
        b.txn(sid=2, ops=[write("y", 1)])
        b.txn(sid=3, ops=[read("x", 0)])  # round 2, still the init value
        cobra = CobraChecker(CobraConfig(fence_every=1, round_size=2))
        for txn in b.build().by_commit_ts():
            cobra.receive(txn)
        assert cobra.finalize().is_valid


class TestEmmeInternals:
    def test_version_order_includes_init(self):
        b = HistoryBuilder(keys=["x"])
        b.txn(sid=1, tid=5, ops=[write("x", 1)])
        order = recover_version_order(DependencyGraph(b.build()))
        assert order["x"][0] == (0, 0, 0)  # ⊥T first (commit_ts 0)
        assert order["x"][-1][1] == 5

    def test_emme_ser_session_in_graph(self):
        # Session order participating in a cycle: T2 (session A, later)
        # must follow T1, but T1 reads T2's write.
        b = HistoryBuilder(keys=["x"])
        b.txn(sid=1, sno=0, start=1, commit=2, ops=[read("x", 7)])
        b.txn(sid=1, sno=1, start=3, commit=4, ops=[write("x", 7)])
        result = EmmeSer().check(b.build())
        assert not result.is_valid

    def test_emme_reports_commit_order_reads(self):
        b = HistoryBuilder(keys=["x"])
        b.txn(sid=1, start=1, commit=4, ops=[write("x", 1)])
        b.txn(sid=2, start=2, commit=5, ops=[read("x", 0)])  # stale under SER
        result = EmmeSer().check(b.build())
        assert result.by_axiom(Axiom.EXT)


class TestDependencyGraphIndex:
    """The graph walks each transaction's ``last_writes`` once; ElleKV and
    Emme read what it kept instead of walking the views again."""

    @pytest.fixture(scope="class")
    def history(self):
        from repro.db.faults import FaultInjector
        from repro.workloads.generator import generate_default_history
        from repro.workloads.spec import WorkloadSpec

        history = generate_default_history(
            WorkloadSpec(n_sessions=6, n_transactions=400, ops_per_txn=6, n_keys=30, seed=41)
        )
        injector = FaultInjector(history, seed=41)
        injector.inject_mix(6)
        return injector.build()

    def test_final_writes_are_each_transactions_last_writes(self, history):
        graph = DependencyGraph(history)
        assert list(graph.final_writes) == [txn.tid for txn in history]
        for txn in history:
            writes = graph.final_writes[txn.tid]
            assert list(writes.items()) == list(txn.last_writes.items())

    def test_final_writer_is_the_last_final_write_of_a_value(self, history):
        graph = DependencyGraph(history)
        expected = {}
        for txn in history:
            for key, value in txn.last_writes.items():
                expected[(key, value)] = txn.tid
        assert all(graph.final_writer(*kv) == tid for kv, tid in expected.items())
        b = HistoryBuilder(keys=["x"])
        b.txn(sid=1, tid=1, ops=[write("x", 1), write("x", 2)])
        graph = DependencyGraph(b.build())
        assert graph.final_writer("x", 1) is None  # an intermediate write
        assert graph.final_writer("x", 2) == 1
        assert graph.final_writer("x", 3) is None

    def test_version_chains_are_the_commit_ordered_final_writes(self, history):
        chains = recover_version_order(DependencyGraph(history))
        expected = {}
        for txn in history:
            for key, value in txn.last_writes.items():
                expected.setdefault(key, []).append((txn.commit_ts, txn.tid, value))
        assert list(chains) == list(expected)  # key order: program order, not hashing
        assert chains == {key: sorted(chain) for key, chain in expected.items()}


class TestReferenceOracle:
    def test_modes_validated(self):
        with pytest.raises(ValueError):
            ReferenceOnlineChecker(mode="other")

    def test_replay_grows_with_prefix(self):
        b = HistoryBuilder(keys=["x"])
        b.txn(sid=1, ops=[write("x", 1)])
        b.txn(sid=2, ops=[read("x", 999)])  # EXT violation
        history = b.build()
        oracle = ReferenceOnlineChecker()
        oracle.receive(history.transactions[0])
        oracle.receive(history.transactions[1])
        assert oracle.result().is_valid
        oracle.receive(history.transactions[2])
        assert not oracle.result().is_valid
        assert len(oracle.received) == 3


class TestNormalization:
    def test_conflict_sets_flatten_to_pairs(self):
        result = CheckResult()
        result.add(
            ConflictViolation(
                axiom=Axiom.NOCONFLICT, tid=1, key="x",
                conflicting_tids=frozenset({2, 3}),
            )
        )
        normalized = normalize_violations(result)
        assert ("NOCONFLICT", frozenset({1, 2}), "x") in normalized
        assert ("NOCONFLICT", frozenset({1, 3}), "x") in normalized

    def test_pair_order_insensitive(self):
        a, b = CheckResult(), CheckResult()
        a.add(ConflictViolation(axiom=Axiom.NOCONFLICT, tid=1, key="x",
                                conflicting_tids=frozenset({2})))
        b.add(ConflictViolation(axiom=Axiom.NOCONFLICT, tid=2, key="x",
                                conflicting_tids=frozenset({1})))
        assert normalize_violations(a) == normalize_violations(b)

    def test_describe_strings(self):
        violations = [
            ExtViolation(axiom=Axiom.EXT, tid=1, key="x", expected=1, actual=2),
            SessionViolation(axiom=Axiom.SESSION, tid=2, sid=3,
                             expected_sno=0, actual_sno=1,
                             start_ts=5, last_commit_ts=9),
            ConflictViolation(axiom=Axiom.NOCONFLICT, tid=4, key="y",
                              conflicting_tids=frozenset({5})),
        ]
        for violation in violations:
            text = violation.describe()
            assert str(violation.tid) in text
            assert violation.axiom.value in text or "violated" in text
