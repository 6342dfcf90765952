"""The checkers' records behave as the dataclasses they replaced.

Every record on the import path of the checkers, ``repro check``,
``repro serve`` and ``repro stats <file>`` is a plain ``__slots__`` class
with a written-out ``__init__`` (so none of those entry points loads
``dataclasses``).
These tests pin what the dataclasses gave: field order, defaults,
positional and keyword construction, repr text (the literals were
printed by the dataclass versions), equality only within one class, a
hash for the frozen records and none for the mutable ones, and frozen
records that refuse assignment with ``AttributeError``.
"""

import copy
import inspect
import pickle
from pathlib import PurePosixPath

import pytest

from repro.baselines.depgraph import CycleViolation
from repro.core.aion import AionConfig
from repro.core.chronos import ChronosReport
from repro.core.common import BOTTOM
from repro.core.ext_status import FlipFlopStats
from repro.core.segments import SpillSegment
from repro.core.spill import GcReport
from repro.core.violations import (
    Axiom,
    CheckResult,
    ConflictViolation,
    ExtViolation,
    IntViolation,
    SessionViolation,
    TimestampOrderViolation,
    Violation,
)
from repro.histories.stats import HistoryStats
from repro.online.metrics import MemorySampler
from repro.service.config import ServiceConfig
from repro.service.protocol import violation_from_dict, violation_to_dict

#: ``(class, required arguments, {field: default} in field order)``.
#: A field without a default has the value of its required argument.
FIELDS = [
    (Violation, (Axiom.EXT, 3), {"axiom": Axiom.EXT, "tid": 3}),
    (
        SessionViolation,
        (Axiom.SESSION, 4),
        {
            "axiom": Axiom.SESSION,
            "tid": 4,
            "sid": -1,
            "expected_sno": -1,
            "actual_sno": -1,
            "start_ts": -1,
            "last_commit_ts": -1,
        },
    ),
    (
        IntViolation,
        (Axiom.INT, 5),
        {"axiom": Axiom.INT, "tid": 5, "key": "", "expected": None, "actual": None},
    ),
    (
        ExtViolation,
        (Axiom.EXT, 6),
        {"axiom": Axiom.EXT, "tid": 6, "key": "", "expected": None, "actual": None},
    ),
    (
        ConflictViolation,
        (Axiom.NOCONFLICT, 7),
        {"axiom": Axiom.NOCONFLICT, "tid": 7, "key": "", "conflicting_tids": frozenset()},
    ),
    (
        TimestampOrderViolation,
        (Axiom.TS_ORDER, 8),
        {"axiom": Axiom.TS_ORDER, "tid": 8, "start_ts": -1, "commit_ts": -1},
    ),
    (
        CycleViolation,
        (Axiom.EXT, 9),
        {"axiom": Axiom.EXT, "tid": 9, "cycle_tids": (), "flavor": "G1c"},
    ),
    (CheckResult, (), {"violations": []}),
    (AionConfig, (), {"timeout": 5.0, "optimized_recheck": True}),
    (
        FlipFlopStats,
        (),
        {
            "flips_per_pair": {},
            "n_flipped_txns": 0,
            "rectify_counts": [0, 0, 0, 0, 0, 0],
            "rectify_seconds": 0.0,
            "n_pairs": 0,
            "n_finalized": 0,
            "n_final_violations": 0,
        },
    ),
    (
        GcReport,
        (1, 2, 3, 4, 5, 0.25),
        {
            "requested_ts": 1,
            "effective_ts": 2,
            "evicted_versions": 3,
            "evicted_intervals": 4,
            "evicted_txns": 5,
            "seconds": 0.25,
        },
    ),
    (
        SpillSegment,
        (1, 2, 3, PurePosixPath("seg.bin"), 4),
        {
            "segment_id": 1,
            "min_ts": 2,
            "max_ts": 3,
            "path": PurePosixPath("seg.bin"),
            "n_items": 4,
        },
    ),
    (
        ChronosReport,
        (),
        {
            "sort_seconds": 0.0,
            "check_seconds": 0.0,
            "gc_seconds": 0.0,
            "gc_runs": 0,
            "n_transactions": 0,
            "n_operations": 0,
            "peak_retained": 0,
            "memory_samples": [],
        },
    ),
    (
        ServiceConfig,
        (),
        {
            "host": "127.0.0.1",
            "port": 0,
            "unix_path": None,
            "level": "si",
            "timeout": 5.0,
            "queue_capacity": 10_000,
            "batch_size": 500,
            "gc_threshold": 0,
            "http_port": None,
            "kernel_sample_every": 16,
            "slow_batch_ms": None,
        },
    ),
    (MemorySampler, (len,), {"estimate": len, "every_n": 1000, "samples": [], "_countdown": 0}),
    (
        HistoryStats,
        (10, 3, 40, 25, 15, 0, 0, 12, 2),
        {
            "n_transactions": 10,
            "n_sessions": 3,
            "n_operations": 40,
            "n_reads": 25,
            "n_writes": 15,
            "n_appends": 0,
            "n_list_reads": 0,
            "n_keys": 12,
            "n_read_only": 2,
        },
    ),
]

FROZEN = {
    Violation,
    SessionViolation,
    IntViolation,
    ExtViolation,
    ConflictViolation,
    TimestampOrderViolation,
    CycleViolation,
    SpillSegment,
    HistoryStats,
}

#: ``(record, its repr as the dataclass printed it)``.
REPRS = [
    (Violation(Axiom.EXT, 3), "Violation(axiom=<Axiom.EXT: 'EXT'>, tid=3)"),
    (
        SessionViolation(Axiom.SESSION, 4, sid=2, expected_sno=1, actual_sno=3, start_ts=10,
                         last_commit_ts=12),
        "SessionViolation(axiom=<Axiom.SESSION: 'SESSION'>, tid=4, sid=2, expected_sno=1, "
        "actual_sno=3, start_ts=10, last_commit_ts=12)",
    ),
    (
        SessionViolation(Axiom.SESSION, 4),
        "SessionViolation(axiom=<Axiom.SESSION: 'SESSION'>, tid=4, sid=-1, expected_sno=-1, "
        "actual_sno=-1, start_ts=-1, last_commit_ts=-1)",
    ),
    (
        IntViolation(Axiom.INT, 5, "k", 1, 2),
        "IntViolation(axiom=<Axiom.INT: 'INT'>, tid=5, key='k', expected=1, actual=2)",
    ),
    (
        IntViolation(Axiom.INT, 5, key="k", expected=(1, "a"), actual=BOTTOM),
        "IntViolation(axiom=<Axiom.INT: 'INT'>, tid=5, key='k', expected=(1, 'a'), actual=⊥)",
    ),
    (
        ExtViolation(Axiom.EXT, 6, "x", BOTTOM, "v"),
        "ExtViolation(axiom=<Axiom.EXT: 'EXT'>, tid=6, key='x', expected=⊥, actual='v')",
    ),
    (
        ExtViolation(Axiom.EXT, 6),
        "ExtViolation(axiom=<Axiom.EXT: 'EXT'>, tid=6, key='', expected=None, actual=None)",
    ),
    (
        ConflictViolation(Axiom.NOCONFLICT, 7, "y", frozenset({9, 8})),
        "ConflictViolation(axiom=<Axiom.NOCONFLICT: 'NOCONFLICT'>, tid=7, key='y', "
        "conflicting_tids=frozenset({8, 9}))",
    ),
    (
        ConflictViolation(Axiom.NOCONFLICT, 7),
        "ConflictViolation(axiom=<Axiom.NOCONFLICT: 'NOCONFLICT'>, tid=7, key='', "
        "conflicting_tids=frozenset())",
    ),
    (
        TimestampOrderViolation(Axiom.TS_ORDER, 8, 5, 3),
        "TimestampOrderViolation(axiom=<Axiom.TS_ORDER: 'TS_ORDER'>, tid=8, start_ts=5, "
        "commit_ts=3)",
    ),
    (
        CycleViolation(axiom=Axiom.EXT, tid=3, cycle_tids=(3, 4), flavor="G0"),
        "CycleViolation(axiom=<Axiom.EXT: 'EXT'>, tid=3, cycle_tids=(3, 4), flavor='G0')",
    ),
    (CheckResult(), "CheckResult(OK: no isolation violations)"),
    (
        CheckResult([ExtViolation(Axiom.EXT, 6, "x", 1, 2)]),
        "CheckResult(VIOLATIONS (1 total): EXT=1)",
    ),
    (AionConfig(), "AionConfig(timeout=5.0, optimized_recheck=True)"),
    (AionConfig(0.5, False), "AionConfig(timeout=0.5, optimized_recheck=False)"),
    (
        FlipFlopStats(),
        "FlipFlopStats(flips_per_pair={}, n_flipped_txns=0, rectify_counts=[0, 0, 0, 0, 0, 0], "
        "rectify_seconds=0.0, n_pairs=0, n_finalized=0, n_final_violations=0)",
    ),
    (
        FlipFlopStats({1: 2}, 1, [1, 0, 0, 0, 0, 2], 0.5, 3, 4, 5),
        "FlipFlopStats(flips_per_pair={1: 2}, n_flipped_txns=1, rectify_counts=[1, 0, 0, 0, 0, 2], "
        "rectify_seconds=0.5, n_pairs=3, n_finalized=4, n_final_violations=5)",
    ),
    (
        GcReport(1, 2, 3, 4, 5, 0.25),
        "GcReport(requested_ts=1, effective_ts=2, evicted_versions=3, evicted_intervals=4, "
        "evicted_txns=5, seconds=0.25)",
    ),
    (
        SpillSegment(1, 2, 3, PurePosixPath("seg.bin"), 4),
        "SpillSegment(segment_id=1, min_ts=2, max_ts=3, path=PurePosixPath('seg.bin'), n_items=4)",
    ),
    (
        ChronosReport(),
        "ChronosReport(sort_seconds=0.0, check_seconds=0.0, gc_seconds=0.0, gc_runs=0, "
        "n_transactions=0, n_operations=0, peak_retained=0, memory_samples=[])",
    ),
    (
        ChronosReport(0.5, 1.5, 0.25, 2, 10, 40, 7, [(1, 2)]),
        "ChronosReport(sort_seconds=0.5, check_seconds=1.5, gc_seconds=0.25, gc_runs=2, "
        "n_transactions=10, n_operations=40, peak_retained=7, memory_samples=[(1, 2)])",
    ),
    (
        ServiceConfig(),
        "ServiceConfig(host='127.0.0.1', port=0, unix_path=None, level='si', "
        "timeout=5.0, queue_capacity=10000, batch_size=500, gc_threshold=0, "
        "http_port=None, kernel_sample_every=16, slow_batch_ms=None)",
    ),
    (
        ServiceConfig("::1", None, "/tmp/d.sock", "ser", float("inf"), 8, 9, 10, 0, 0, 3.5),
        "ServiceConfig(host='::1', port=None, unix_path='/tmp/d.sock', level='ser', "
        "timeout=inf, queue_capacity=8, batch_size=9, gc_threshold=10, "
        "http_port=0, kernel_sample_every=0, slow_batch_ms=3.5)",
    ),
    (
        MemorySampler(len, 5, [(0.5, 3)], 2),
        "MemorySampler(estimate=<built-in function len>, every_n=5, samples=[(0.5, 3)], "
        "_countdown=2)",
    ),
    (
        HistoryStats(10, 3, 40, 25, 15, 0, 0, 12, 2),
        "HistoryStats(n_transactions=10, n_sessions=3, n_operations=40, n_reads=25, "
        "n_writes=15, n_appends=0, n_list_reads=0, n_keys=12, n_read_only=2)",
    ),
]

#: One record of every violation kind, with values that need the wire's tags.
VIOLATIONS = [
    Violation(Axiom.EXT, 1),
    SessionViolation(Axiom.SESSION, 2, sid=3, expected_sno=4, actual_sno=6, start_ts=7,
                     last_commit_ts=9),
    IntViolation(Axiom.INT, 3, "k", (1, "a", (2,)), BOTTOM),
    IntViolation(Axiom.INT, 3, "k", {"$": "x"}, None),
    ExtViolation(Axiom.EXT, 4, "x", BOTTOM, 5),
    ExtViolation(Axiom.EXT, 4, "x", "s", True),
    ConflictViolation(Axiom.NOCONFLICT, 5, "y", frozenset({9, 8, 2**70})),
    TimestampOrderViolation(Axiom.TS_ORDER, 6, 10, 3),
]

IDS = [cls.__name__ for cls, _, _ in FIELDS]


def _parameters(cls):
    return list(inspect.signature(cls.__init__).parameters.values())[1:]


@pytest.mark.parametrize("cls, required, fields", FIELDS, ids=IDS)
def test_field_order_and_defaults(cls, required, fields):
    parameters = _parameters(cls)
    assert [p.name for p in parameters] == list(fields)
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in parameters)
    # Required arguments first, every later field with a default.
    assert [p.default is p.empty for p in parameters] == [
        index < len(required) for index in range(len(fields))
    ]
    record = cls(*required)
    assert {name: getattr(record, name) for name in fields} == fields
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("cls, required, fields", FIELDS, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, required, fields):
    values = dict(fields)
    positional = cls(*values.values())
    keyword = cls(**values)
    assert positional == keyword
    assert {name: getattr(keyword, name) for name in fields} == values


@pytest.mark.parametrize("cls, required, fields", FIELDS, ids=IDS)
def test_mutable_defaults_are_not_shared(cls, required, fields):
    first, second = cls(*required), cls(*required)
    for name, default in fields.items():
        if isinstance(default, (list, dict)):
            assert getattr(first, name) is not getattr(second, name)


@pytest.mark.parametrize("record, text", REPRS, ids=[type(r).__name__ for r, _ in REPRS])
def test_repr_is_the_dataclass_text(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("cls, required, fields", FIELDS, ids=IDS)
def test_equality_compares_fields_within_one_class(cls, required, fields):
    record = cls(*required)
    assert record == cls(*required)
    assert not record != cls(*required)
    name, default = list(fields.items())[-1]
    changed = cls(**{**fields, name: _other(default)})
    assert record != changed
    assert record != object()
    assert (record == object()) is False


def _other(value):
    if isinstance(value, bool) or value is None:
        return 12345
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "x"
    if isinstance(value, (list, tuple, frozenset)):
        return type(value)([99])
    if isinstance(value, dict):
        return {99: 1}
    if isinstance(value, PurePosixPath):
        return value / "x"
    return None


def test_equality_needs_the_same_class():
    # Same field values, different kinds: never equal, as with the dataclasses.
    assert IntViolation(Axiom.EXT, 1, "k", 1, 2) != ExtViolation(Axiom.EXT, 1, "k", 1, 2)
    assert Violation(Axiom.EXT, 1) != ExtViolation(Axiom.EXT, 1)

    class Sub(ExtViolation):
        __slots__ = ()

    assert Sub(Axiom.EXT, 1) != ExtViolation(Axiom.EXT, 1)


@pytest.mark.parametrize("cls, required, fields", FIELDS, ids=IDS)
def test_frozen_records_hash_by_fields_and_mutable_ones_do_not_hash(cls, required, fields):
    record = cls(*required)
    if cls in FROZEN:
        assert hash(record) == hash(tuple(fields.values()))
        assert hash(record) == hash(cls(*required))
        assert len({record, cls(*required)}) == 1
    else:
        with pytest.raises(TypeError):
            hash(record)


@pytest.mark.parametrize("cls, required, fields", FIELDS, ids=IDS)
def test_frozen_records_refuse_assignment(cls, required, fields):
    record = cls(*required)
    name = next(iter(fields))
    if cls in FROZEN:
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.not_a_field = 1
        assert getattr(record, name) == fields[name]
    else:
        setattr(record, name, 1)
        assert getattr(record, name) == 1
        with pytest.raises(AttributeError):
            record.not_a_field = 1


@pytest.mark.parametrize("violation", VIOLATIONS, ids=repr)
def test_frozen_violations_copy_and_pickle(violation):
    for twin in (copy.copy(violation), copy.deepcopy(violation),
                 pickle.loads(pickle.dumps(violation))):
        assert type(twin) is type(violation)
        assert twin == violation and repr(twin) == repr(violation)


def test_history_stats_copy_and_pickle():
    stats = HistoryStats(10, 3, 40, 25, 15, 0, 0, 12, 2)
    for twin in (copy.copy(stats), copy.deepcopy(stats), pickle.loads(pickle.dumps(stats))):
        assert type(twin) is HistoryStats
        assert twin == stats and repr(twin) == repr(stats)
    assert stats.ops_per_txn == 4.0 and stats.read_ratio == 25 / 40


@pytest.mark.parametrize("violation", VIOLATIONS, ids=repr)
def test_every_violation_kind_round_trips_the_wire_record(violation):
    record = violation_to_dict(violation)
    assert list(record)[:3] == ["axiom", "tid", "kind"]
    assert list(record)[3:] == list(type(violation)._fields[2:])
    back = violation_from_dict(record)
    assert type(back) is type(violation)
    assert back == violation
    assert repr(back) == repr(violation)
    assert violation_to_dict(back) == record


def test_violation_fields_extend_the_base():
    for cls in (SessionViolation, IntViolation, ExtViolation, ConflictViolation,
                TimestampOrderViolation, CycleViolation):
        assert cls._fields[:2] == Violation._fields == ("axiom", "tid")
        assert cls._fields == ("axiom", "tid") + cls.__slots__
