"""Tests for workload specs, distributions, driver, and generators."""

from collections import Counter
from random import Random

import pytest

from repro.core.chronos import Chronos
from repro.core.chronos_ser import ChronosSer
from repro.db.engine import Database, IsolationLevel
from repro.db.oracle import DecentralizedOracle
from repro.histories.builder import HistoryBuilder
from repro.histories.model import OP_WRITE
from repro.histories.stats import HistoryStats
from repro.workloads.distributions import HotspotKeys, UniformKeys, ZipfianKeys, make_chooser
from repro.workloads.driver import InterleavedDriver, TxnProgram, run_workload
from repro.workloads.generator import generate_default_history
from repro.workloads.list_workload import generate_list_history
from repro.workloads.rubis import generate_rubis_history
from repro.workloads.spec import PARAMETER_GRID, WorkloadSpec
from repro.workloads.tpcc import generate_tpcc_history
from repro.workloads.twitter import generate_twitter_history


class TestSpec:
    def test_defaults_match_table1(self):
        spec = WorkloadSpec()
        assert spec.n_sessions == 50
        assert spec.n_transactions == 100_000
        assert spec.ops_per_txn == 15
        assert spec.read_ratio == 0.5
        assert spec.n_keys == 1000
        assert spec.distribution == "zipfian"

    def test_grid_values_match_table1(self):
        assert PARAMETER_GRID["n_sessions"] == (10, 20, 50, 100, 200)
        assert PARAMETER_GRID["ops_per_txn"] == (5, 15, 30, 50, 100)
        assert PARAMETER_GRID["n_keys"] == (200, 500, 1000, 2000, 5000)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_sessions": 0},
            {"ops_per_txn": 0},
            {"read_ratio": 1.5},
            {"n_keys": 0},
            {"distribution": "pareto"},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            WorkloadSpec(**kwargs)

    def test_scaled_copy(self):
        spec = WorkloadSpec().scaled(n_transactions=7)
        assert spec.n_transactions == 7
        assert spec.n_keys == 1000


class TestDistributions:
    def test_uniform_covers_keyspace(self):
        chooser = UniformKeys(10)
        rng = Random(1)
        counts = Counter(chooser.choose(rng) for _ in range(5000))
        assert set(counts) == set(range(10))
        assert max(counts.values()) < 2 * min(counts.values())

    def test_zipfian_skews_to_low_indexes(self):
        chooser = ZipfianKeys(100)
        rng = Random(2)
        counts = Counter(chooser.choose(rng) for _ in range(20_000))
        assert counts[0] > counts.get(50, 0) > 0 or counts[0] > 50
        top10 = sum(counts.get(i, 0) for i in range(10))
        assert top10 / 20_000 > 0.3  # head-heavy

    def test_hotspot_80_20(self):
        chooser = HotspotKeys(100)
        rng = Random(3)
        hits = sum(1 for _ in range(20_000) if chooser.choose(rng) < 20)
        assert 0.75 < hits / 20_000 < 0.85

    def test_make_chooser_dispatch(self):
        assert isinstance(make_chooser("uniform", 5), UniformKeys)
        assert isinstance(make_chooser("zipfian", 5), ZipfianKeys)
        assert isinstance(make_chooser("hotspot", 5), HotspotKeys)
        with pytest.raises(ValueError):
            make_chooser("other", 5)

    def test_all_indexes_in_range(self):
        rng = Random(4)
        for name in ("uniform", "zipfian", "hotspot"):
            chooser = make_chooser(name, 7)
            assert all(0 <= chooser.choose(rng) < 7 for _ in range(500))


class TestDriver:
    def test_commits_exactly_n(self):
        db = Database()
        db.initialize(["a", "b"], 0)
        driver = InterleavedDriver(db, 4, seed=11)
        values = iter(range(1, 10_000))

        def factory(_sid, rng):
            return TxnProgram().write(rng.choice(["a", "b"]), next(values))

        aborted = driver.run(factory, 100)
        assert driver.n_committed == 100
        assert db.n_commits == 100 + 0  # ⊥T not via driver
        assert aborted == db.n_aborts

    def test_retries_after_aborts(self):
        db = Database()
        db.initialize(["hot"], 0)
        driver = InterleavedDriver(db, 8, seed=12)
        values = iter(range(1, 10_000))

        def contended(_sid, rng):
            return TxnProgram().read("hot").write("hot", next(values))

        driver.run(contended, 60)
        assert driver.n_committed == 60
        assert driver.n_aborted > 0  # contention really happened

    def test_unknown_op_code_raises(self):
        db = Database()
        db.initialize(["a"], 0)
        program = TxnProgram().read("a")
        program.steps.append((OP_WRITE + 7, "a", 1))
        with pytest.raises(ValueError, match="unknown op code 8"):
            InterleavedDriver(db, 1, seed=1).run(lambda _sid, _rng: program, 1)

    def test_run_workload_writes_init_unless_given_a_database(self):
        def factory(_sid, rng):
            return TxnProgram().read("a").write("b", rng.randrange(100))

        history = run_workload(["a", "b"], 7, factory, 5, n_sessions=2, seed=3)
        init = history.init_transaction
        assert (init.codes, init.keys, init.values) == (bytes([OP_WRITE]) * 2, ("a", "b"), (7, 7))
        assert len(history.without_init()) == 5

        db = Database(isolation=IsolationLevel.SER)
        db.initialize(["a", "b"], 0)
        history = run_workload(["ignored"], 9, factory, 3, n_sessions=1, seed=3, database=db)
        assert history.init_transaction.values == (0, 0)
        assert db.n_commits == 3

    def test_builder_and_engine_write_the_same_init(self):
        db = Database()
        db.initialize(iter(["x", "y"]), 5)
        engine = db.cdc.to_history().init_transaction
        built = HistoryBuilder(keys=["x", "y"], initial_value=5).build().init_transaction
        for txn in (engine, built):
            assert (txn.tid, txn.sid, txn.sno, txn.start_ts, txn.commit_ts) == (0, 0, 0, 0, 0)
            assert (txn.codes, txn.keys, txn.values) == (bytes([OP_WRITE]) * 2, ("x", "y"), (5, 5))

    def test_transactions_overlap(self):
        spec = WorkloadSpec(n_sessions=8, n_transactions=200, ops_per_txn=6, n_keys=50, seed=13)
        history = generate_default_history(spec)
        txns = history.without_init()
        overlapping = sum(
            1 for a, b in zip(txns, txns[1:]) if a.overlaps(b)
        )
        assert overlapping > 0

    def test_deterministic_given_seed(self):
        spec = WorkloadSpec(n_sessions=4, n_transactions=80, ops_per_txn=5, n_keys=20, seed=14)
        h1 = generate_default_history(spec)
        h2 = generate_default_history(spec)
        assert [t.tid for t in h1] == [t.tid for t in h2]
        assert [t.start_ts for t in h1] == [t.start_ts for t in h2]


class TestGenerators:
    def test_default_matches_spec(self):
        spec = WorkloadSpec(n_sessions=6, n_transactions=300, ops_per_txn=12,
                            read_ratio=0.3, n_keys=40, seed=15)
        history = generate_default_history(spec)
        stats = HistoryStats.of(history)
        assert stats.n_transactions == 300
        assert stats.n_sessions == 6
        assert abs(stats.ops_per_txn - 12) < 0.01
        assert 0.2 < stats.read_ratio < 0.4
        assert stats.n_keys <= 40
        assert Chronos().check(history).is_valid

    def test_unique_write_values(self):
        spec = WorkloadSpec(n_sessions=4, n_transactions=200, ops_per_txn=8, n_keys=30, seed=16)
        history = generate_default_history(spec)
        written = [
            op.value
            for txn in history.without_init()
            for op in txn.ops
            if op.kind.value == "w"
        ]
        assert len(written) == len(set(written))

    def test_list_workload_valid(self):
        spec = WorkloadSpec(n_sessions=4, n_transactions=200, ops_per_txn=6, n_keys=20, seed=17)
        history = generate_list_history(spec)
        stats = HistoryStats.of(history)
        assert stats.n_appends > 0 and stats.n_list_reads > 0
        assert stats.n_writes == 0 and stats.n_reads == 0
        assert Chronos().check(history).is_valid

    @pytest.mark.parametrize(
        "generator",
        [generate_twitter_history, generate_rubis_history, generate_tpcc_history],
    )
    def test_app_workloads_valid_si(self, generator):
        history = generator(300, seed=18)
        assert len(history.without_init()) == 300
        assert Chronos().check(history).is_valid

    @pytest.mark.parametrize(
        "generator",
        [generate_twitter_history, generate_rubis_history],
    )
    def test_app_workloads_ser_mode(self, generator):
        history = generator(200, seed=19, isolation=IsolationLevel.SER)
        assert ChronosSer().check(history).is_valid

    def test_twitter_key_population_grows(self):
        small = generate_twitter_history(200, seed=20)
        large = generate_twitter_history(800, seed=20)
        assert HistoryStats.of(large).n_keys > HistoryStats.of(small).n_keys

    def test_rubis_key_population_bounded(self):
        small = generate_rubis_history(200, seed=21)
        large = generate_rubis_history(800, seed=21)
        bound = 200 * 2 + 800 * 4  # users*2 + items*4
        assert HistoryStats.of(large).n_keys <= bound
        assert HistoryStats.of(small).n_keys <= bound

    def test_tpcc_composite_keyspace(self):
        history = generate_tpcc_history(300, seed=22)
        keys = history.keys()
        tables = {key.split(":")[0] for key in keys}
        assert {"warehouse", "district", "customer", "stock"} <= tables
        assert any(key.count(":") >= 3 for key in keys)  # composite depth


class _TickCountingOracle(DecentralizedOracle):
    def __init__(self) -> None:
        super().__init__(2)
        self.ticks = 0

    def tick(self, amount: int = 1) -> None:
        self.ticks += 1
        super().tick(amount)


_SPEC = WorkloadSpec(n_sessions=4, n_transactions=60, ops_per_txn=4, n_keys=20, seed=23)


@pytest.mark.parametrize(
    "generate",
    [
        lambda oracle: generate_default_history(_SPEC, oracle=oracle),
        lambda oracle: generate_list_history(_SPEC, oracle=oracle),
        lambda oracle: generate_twitter_history(60, seed=23, oracle=oracle),
        lambda oracle: generate_rubis_history(60, seed=23, oracle=oracle),
        lambda oracle: generate_tpcc_history(60, seed=23, oracle=oracle),
    ],
    ids=["default", "list", "twitter", "rubis", "tpcc"],
)
def test_every_generator_ticks_a_decentralized_oracle(generate):
    """Every committed transaction takes at least three driver steps
    (begin, one op, commit), and the driver ticks every eighth step."""
    oracle = _TickCountingOracle()
    history = generate(oracle)
    assert len(history.without_init()) == 60
    assert oracle.ticks >= 60 * 3 // 8
