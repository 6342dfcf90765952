"""Tests for storage, oracles, CDC and fault injection."""

import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chronos import Chronos
from repro.core.violations import Axiom
from repro.db.cdc import parse_wal
from repro.db.faults import FaultInjector, SkewedOracle
from repro.db.oracle import CentralizedOracle, DecentralizedOracle, HybridLogicalClock
from repro.db.storage import MultiVersionStore
from repro.workloads.generator import generate_default_history
from repro.workloads.spec import WorkloadSpec


class TestMultiVersionStore:
    def test_read_at_floor(self):
        store = MultiVersionStore()
        store.install("x", 10, "a")
        store.install("x", 20, "b")
        assert store.read_at("x", 5) is None
        assert store.read_at("x", 10) == (10, "a")
        assert store.read_at("x", 15) == (10, "a")
        assert store.read_at("x", 25) == (20, "b")
        assert store.latest("x") == (20, "b")

    def test_out_of_order_install(self):
        store = MultiVersionStore()
        store.install("x", 20, "b")
        store.install("x", 10, "a")
        assert store.read_at("x", 15) == (10, "a")

    def test_shuffled_installs_read_as_sorted_chain(self):
        # The parallel lists stay in commit order (equal timestamps in
        # install order) whatever order the versions arrive in.
        rng = random.Random(3)
        versions = [(rng.randrange(40), f"v{i}") for i in range(60)]
        store = MultiVersionStore()
        for ts, value in versions:
            store.install("x", ts, value)
        chain = sorted(versions, key=lambda version: version[0])
        for ts in range(-1, 42):
            below = [version for version in chain if version[0] <= ts]
            assert store.read_at("x", ts) == (below[-1] if below else None)
            assert store.versions_in("x", ts, ts + 7) == [
                version for version in chain if ts < version[0] <= ts + 7
            ]
        assert store.latest("x") == chain[-1]
        assert store.n_versions == 60

    def test_versions_in_window(self):
        store = MultiVersionStore()
        for ts in (10, 20, 30):
            store.install("x", ts, str(ts))
        assert [v[0] for v in store.versions_in("x", 10, 30)] == [20, 30]
        assert store.versions_in("x", 30, 99) == []
        assert store.versions_in("missing", 0, 99) == []

    def test_counters(self):
        store = MultiVersionStore()
        store.install("x", 1, "a")
        store.install("y", 2, "b")
        assert len(store) == 2
        assert store.n_versions == 2
        assert "x" in store and "z" not in store


class TestHlc:
    def test_monotonic_with_stalled_clock(self):
        clock = HybridLogicalClock(0, lambda: 5)
        stamps = [clock.next_ts() for _ in range(50)]
        assert stamps == sorted(stamps)
        assert len(set(stamps)) == 50

    def test_observe_advances(self):
        a = HybridLogicalClock(0, lambda: 5, n_nodes=2)
        b = HybridLogicalClock(1, lambda: 3, n_nodes=2)  # behind
        ts_a = a.next_ts()
        b.observe(ts_a)
        assert b.next_ts() > ts_a

    def test_node_ids_guarantee_uniqueness(self):
        a = HybridLogicalClock(0, lambda: 5, n_nodes=2)
        b = HybridLogicalClock(1, lambda: 5, n_nodes=2)
        stamps = [a.next_ts() for _ in range(20)] + [b.next_ts() for _ in range(20)]
        assert len(set(stamps)) == 40


class TestDecentralizedOracle:
    def test_unique_across_nodes(self):
        oracle = DecentralizedOracle(3, skews=[0, 2, -2])
        stamps = []
        for i in range(300):
            stamps.append(oracle.next_ts(i % 3))
            if i % 10 == 0:
                oracle.tick()
        assert len(set(stamps)) == 300

    def test_skew_produces_inversions(self):
        oracle = DecentralizedOracle(2, skews=[0, 50])
        early = oracle.next_ts(1)  # fast node issues a big timestamp
        oracle.tick()
        late = oracle.next_ts(0)   # slow node issues a smaller one later
        assert late < early

    def test_skews_validation(self):
        with pytest.raises(ValueError):
            DecentralizedOracle(2, skews=[0])
        with pytest.raises(ValueError):
            DecentralizedOracle(0)


class TestCdc:
    def test_wal_roundtrip(self, si_history):
        from repro.db.engine import Database
        from repro.workloads.generator import build_database

        spec = WorkloadSpec(n_sessions=4, n_transactions=100, ops_per_txn=5, n_keys=20, seed=55)
        db = build_database(spec)
        generate_default_history(spec, database=db)
        wal_text = list(db.cdc.wal_lines())
        parsed = parse_wal(wal_text)
        assert len(parsed) == len(db.cdc)
        assert Chronos().check(parsed).is_valid

    def test_subscription_tails_commits(self):
        from repro.workloads.generator import build_database

        spec = WorkloadSpec(n_sessions=4, n_transactions=50, ops_per_txn=5, n_keys=20, seed=56)
        db = build_database(spec)
        seen = []
        db.cdc.subscribe(lambda record: seen.append(record.tid))
        generate_default_history(spec, database=db)
        assert len(seen) == 50  # ⊥T was emitted before subscription

    def test_wal_line_is_the_one_renderer(self):
        """A live shipper (the chaos campaign's) renders each commit with
        the function the log's own WAL uses, and the log holds the
        engine's ``Transaction`` objects, which ``to_history`` reuses."""
        from repro.db.cdc import wal_line
        from repro.histories.model import Transaction
        from repro.workloads.generator import build_database

        spec = WorkloadSpec(n_sessions=3, n_transactions=40, ops_per_txn=4, n_keys=10, seed=57)
        db = build_database(spec)
        shipped = []
        db.cdc.subscribe(lambda txn: shipped.append(wal_line(txn)))
        generate_default_history(spec, database=db)
        lines = list(db.cdc.wal_lines())
        assert lines[1:] == shipped  # ⊥T was emitted before subscription
        assert lines[1].startswith('COMMIT {"tid":')
        assert all(type(txn) is Transaction for txn in db.cdc)
        assert all(a is b for a, b in zip(db.cdc.to_history(), db.cdc))

    def test_save_wal_and_iter_wal_file(self, tmp_path):
        from repro.db.cdc import ChangeLog, iter_wal_file
        from repro.histories.model import OpKind, Operation, Transaction

        log = ChangeLog()
        log.emit(Transaction(tid=1, sid=1, sno=0, start_ts=1, commit_ts=2,
                             ops=(Operation(OpKind.WRITE, "x", 1),)))
        log.emit(Transaction(tid=2, sid=2, sno=0, start_ts=3, commit_ts=4, ops=()))
        path = tmp_path / "capture.wal"
        assert log.save_wal(path) == 2
        streamed = list(iter_wal_file(path))
        assert [t.tid for t in streamed] == [1, 2]
        assert list(map(_txn_fingerprint, streamed)) == list(
            map(_txn_fingerprint, log.to_history())
        )

    def test_iter_wal_file_skips_foreign_records(self, tmp_path):
        from repro.db.cdc import iter_wal_file

        path = tmp_path / "mixed.wal"
        path.write_text(
            "BEGIN 7\n"
            'COMMIT {"tid":7,"sid":1,"sno":0,"sts":1,"cts":2,"ops":[["w","x",1]]}\n'
            "\n"
            "CHECKPOINT 9\n",
            encoding="utf-8",
        )
        assert [t.tid for t in iter_wal_file(path)] == [7]


def _txn_fingerprint(txn):
    """Full structural identity (Transaction.__eq__ compares tids only)."""
    return (
        txn.tid, txn.sid, txn.sno, txn.start_ts, txn.commit_ts,
        tuple((op.kind, op.key, op.value) for op in txn.ops),
    )


class TestWalRoundTripProperty:
    """parse_wal ∘ wal_lines is the identity on captured logs — including
    unicode keys, empty transactions, and out-of-order session ids."""

    _keys = st.text(min_size=1, max_size=6).filter(lambda s: s.strip() == s and s)
    _values = st.one_of(st.none(), st.integers(-10, 10), st.text(max_size=4))
    _ops = st.lists(
        st.tuples(st.sampled_from(["r", "w"]), _keys, _values), max_size=5
    )

    @staticmethod
    def _record(tid, sid, sno, start_ts, span, op_specs):
        from repro.histories.model import OpKind, Operation, Transaction

        ops = tuple(
            Operation(OpKind.READ if code == "r" else OpKind.WRITE, key, value)
            for code, key, value in op_specs
        )
        return Transaction(
            tid=tid, sid=sid, sno=sno, start_ts=start_ts,
            commit_ts=start_ts + span, ops=ops,
        )

    @settings(max_examples=60, deadline=None)
    @given(
        txns=st.lists(
            st.tuples(
                st.integers(0, 99),       # sid — arbitrary, repeats, unsorted
                st.integers(0, 5),        # sno
                st.integers(0, 1000),     # start_ts
                st.integers(0, 20),       # commit span
                _ops,
            ),
            max_size=12,
        )
    )
    def test_round_trip(self, txns, tmp_path_factory):
        from repro.db.cdc import ChangeLog, iter_wal_file, parse_wal

        log = ChangeLog()
        for tid, (sid, sno, start_ts, span, op_specs) in enumerate(txns):
            log.emit(self._record(tid, sid, sno, start_ts, span, op_specs))

        original = [_txn_fingerprint(txn) for txn in log.to_history()]
        parsed = parse_wal(log.wal_lines())
        assert [_txn_fingerprint(txn) for txn in parsed] == original

        path = tmp_path_factory.mktemp("wal") / "log.wal"
        log.save_wal(path)
        assert [_txn_fingerprint(txn) for txn in iter_wal_file(path)] == original


class TestSkewedOracle:
    def test_produces_violations(self):
        oracle = SkewedOracle(CentralizedOracle(), probability=0.1, max_skew=100)
        history = generate_default_history(
            WorkloadSpec(n_sessions=8, n_transactions=600, ops_per_txn=10, n_keys=60, seed=57),
            oracle=oracle,
        )
        assert oracle.n_skewed > 0
        result = Chronos().check(history)
        assert not result.is_valid

    def test_zero_probability_is_clean(self):
        oracle = SkewedOracle(CentralizedOracle(), probability=0.0)
        history = generate_default_history(
            WorkloadSpec(n_sessions=4, n_transactions=200, ops_per_txn=6, n_keys=40, seed=58),
            oracle=oracle,
        )
        assert oracle.n_skewed == 0
        assert Chronos().check(history).is_valid

    def test_stride_validation(self):
        with pytest.raises(ValueError):
            SkewedOracle(CentralizedOracle(), stride=1)


class TestFaultInjector:
    @pytest.fixture(scope="class")
    def base_history(self):
        return generate_default_history(
            WorkloadSpec(n_sessions=6, n_transactions=300, ops_per_txn=8, n_keys=50, seed=59)
        )

    def test_rescaling_alone_preserves_verdict(self, base_history):
        injector = FaultInjector(base_history)
        assert Chronos().check(injector.build()).is_valid

    @pytest.mark.parametrize(
        "method,axiom",
        [
            ("inject_ext", Axiom.EXT),
            ("inject_int", Axiom.INT),
            ("inject_session", Axiom.SESSION),
            ("inject_noconflict", Axiom.NOCONFLICT),
            ("inject_ts_order", Axiom.TS_ORDER),
        ],
    )
    def test_each_fault_detected_by_matching_axiom(self, base_history, method, axiom):
        injector = FaultInjector(base_history, seed=60)
        label = getattr(injector, method)()
        assert label is not None and label.axiom is axiom
        result = Chronos().check(injector.build())
        found = {(v.axiom, v.tid) for v in result.violations}
        assert any((axiom, tid) in found for tid in label.tids), (label, result.summary())

    @pytest.mark.parametrize(
        "injections",
        [
            # One held history.
            "injector = FaultInjector(history, seed=60)\n"
            "labels = [injector.inject_noconflict() for _ in range(4)]\n",
            # Live windows of 50, each observed after its injection.
            "injector = FaultInjector(seed=60)\n"
            "txns = list(history.transactions)\n"
            "labels = []\n"
            "for lo in range(0, 300, 50):\n"
            "    window = txns[lo : lo + 50]\n"
            "    labels.append(injector.inject_noconflict(window))\n"
            "    injector.observe(window)\n",
        ],
        ids=["held", "live"],
    )
    def test_noconflict_label_is_hash_seed_independent(self, injections):
        """``write_keys`` is a set of str: the injected pair must not
        follow the interpreter's string hashing."""
        script = (
            "from repro.db.faults import FaultInjector\n"
            "from repro.workloads.generator import generate_default_history\n"
            "from repro.workloads.spec import WorkloadSpec\n"
            "history = generate_default_history(WorkloadSpec(n_sessions=6,"
            " n_transactions=300, ops_per_txn=8, n_keys=50, seed=59))\n"
            + injections
            + "print([(l.tids, l.key) for l in labels])\n"
        )
        outputs = set()
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(sys.path))
            done = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
            )
            assert done.returncode == 0, done.stderr
            outputs.add(done.stdout)
        assert len(outputs) == 1, outputs
        assert "None" not in outputs.pop()

    def test_inject_mix_counts(self, base_history):
        injector = FaultInjector(base_history, seed=61)
        labels = injector.inject_mix(10)
        assert len(labels) == 10
        assert len({label.axiom for label in labels}) == 5
