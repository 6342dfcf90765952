"""The offline walks visit transactions in the order the event tuples did.

``Chronos`` used to build ``2N`` ``(ts, phase, tid, index)`` tuples and
sort them; ``ChronosSer`` sorted ``(commit_ts, tid, index)``.  Both now
sort transaction indices by one ``int`` key (``timestamp_order``) and
``Chronos`` merges its start and commit orders.  The references below
are the tuple rule, kept here so that the two can be compared on
histories built to tie: equal starts, equal commits, ``start ==
commit``, one transaction's start on another's commit, repeated and
negative tids, negative timestamps and Eq. 1 offenders.  The ordered
reports must be equal, on list columns and on the ``array('i')`` /
``array('q')`` columns a loaded history has (timestamps and tids are
shifted past 32 bits too).
"""

from __future__ import annotations

from array import array
from typing import List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chronos import Chronos, GcMode
from repro.core.chronos_ser import ChronosSer
from repro.core.colpack import ColumnarBatch
from repro.core.common import SessionTracker, simulate, timestamp_order
from repro.core.violations import Axiom, ConflictViolation, TimestampOrderViolation
from repro.histories.model import Transaction
from repro.histories.ops import read, write
from repro.histories.serialization import columns_from_rows, txn_to_dict


def _ts_order(batch: ColumnarBatch, index: int):
    return TimestampOrderViolation(
        axiom=Axiom.TS_ORDER,
        tid=batch.tids[index],
        start_ts=batch.starts[index],
        commit_ts=batch.commits[index],
    )


def reference_si(batch: ColumnarBatch) -> List[str]:
    """Chronos's walk over sorted ``(ts, phase, tid, index)`` tuples."""
    reports: list = []
    events = []
    for index, (tid, start_ts, commit_ts) in enumerate(zip(batch.tids, batch.starts, batch.commits)):
        if start_ts > commit_ts:
            reports.append(_ts_order(batch, index))
        else:
            events += [(start_ts, 0, tid, index), (commit_ts, 1, tid, index)]
    events.sort()
    frontier: dict = {}
    ongoing: dict = {}
    state: dict = {}
    sessions = SessionTracker()
    int_reports: list = []
    for ts, phase, tid, index in events:
        if phase == 0:
            writes = simulate(batch, index, tid, ts, sessions, frontier, reports.append, int_reports.append)
            reports += int_reports
            int_reports.clear()
            state[tid] = writes
            for key in writes:
                ongoing.setdefault(key, set()).add(tid)
        else:
            for key, value in state.pop(tid, {}).items():
                writers = ongoing[key]
                writers.discard(tid)
                if writers:
                    reports.append(
                        ConflictViolation(
                            axiom=Axiom.NOCONFLICT, tid=tid, key=key, conflicting_tids=frozenset(writers)
                        )
                    )
                else:
                    del ongoing[key]
                frontier[key] = value
    return [violation.describe() for violation in reports]


def reference_ser(batch: ColumnarBatch) -> List[str]:
    """ChronosSer's walk over sorted ``(commit_ts, tid, index)`` tuples."""
    reports: list = []
    frontier: dict = {}
    sessions = SessionTracker()
    for commit_ts, tid, index in sorted(zip(batch.commits, batch.tids, range(len(batch)))):
        if batch.starts[index] > commit_ts:
            reports.append(_ts_order(batch, index))
        frontier.update(
            simulate(batch, index, tid, commit_ts, sessions, frontier, reports.append, reports.append)
        )
    return [violation.describe() for violation in reports]


def _describe(result) -> List[str]:
    return [violation.describe() for violation in result.violations]


def _both_columns(txns: List[Transaction]):
    """List columns (flattened objects) and machine-word columns (rows)."""
    as_lists = ColumnarBatch.from_transactions(txns)
    as_arrays = columns_from_rows(map(txn_to_dict, txns))
    assert type(as_arrays.tids) is array
    return as_lists, as_arrays


def assert_same_order(txns: List[Transaction]) -> None:
    for batch in _both_columns(txns):
        expected_si, expected_ser = reference_si(batch), reference_ser(batch)
        assert _describe(Chronos().check(batch)) == expected_si
        assert _describe(Chronos(gc_every=1, gc_mode=GcMode.LIGHT).check(batch)) == expected_si
        assert _describe(ChronosSer().check(batch)) == expected_ser


_op = st.tuples(st.booleans(), st.sampled_from("xyz"), st.integers(0, 3)).map(
    lambda spec: write(spec[1], spec[2]) if spec[0] else read(spec[1], spec[2])
)
_txn = st.tuples(
    st.integers(-3, 3),              # tid: repeats and negatives on purpose
    st.integers(1, 3),               # sid
    st.integers(0, 3),               # sno
    st.integers(-2, 4),              # start_ts: a narrow range forces ties
    st.integers(-1, 3),              # commit_ts - start_ts: 0 is start == commit, < 0 Eq. 1
    st.lists(_op, max_size=4),
)
#: Added to every timestamp (tid) of a history: the narrow ranges above
#: keep their ties, and the loaded columns become ``array('q')`` when an
#: offset is past 32 bits.
_WIDE = st.sampled_from([0, 2**31, 2**40, -(2**35), 2**62])


@settings(max_examples=400, deadline=None)
@given(st.lists(_txn, min_size=1, max_size=12), _WIDE, _WIDE)
def test_walks_reproduce_the_tuple_order(specs, ts_offset, tid_offset):
    txns = [
        Transaction(tid + tid_offset, sid, sno, ops, start + ts_offset, start + length + ts_offset)
        for tid, sid, sno, start, length, ops in specs
    ]
    assert_same_order(txns)


def test_wide_timestamps_and_tids_load_as_eight_byte_words():
    txns = [
        Transaction(2**40 + tid, 1, tid, [write("x", tid)], 2**33 + 2 * tid, 2**33 + 2 * tid + 1)
        for tid in range(5)
    ]
    _, as_arrays = _both_columns(txns)
    assert {as_arrays.tids.typecode, as_arrays.starts.typecode, as_arrays.commits.typecode} == {"q"}
    assert as_arrays.snos.typecode == "i"
    assert_same_order(txns)


def test_each_kind_of_tie():
    """The ties named one by one, each deciding a report."""
    txns = [
        # equal starts, writers of x: NOCONFLICT from the first to commit
        Transaction(5, 1, 0, [write("x", 1)], 10, 12),
        Transaction(3, 2, 0, [write("x", 2)], 10, 13),
        # start == commit, reading x while both writers are in flight
        Transaction(4, 3, 0, [read("x", 2)], 11, 11),
        # equal commits: the tid decides which commit comes first
        Transaction(9, 1, 1, [write("y", 1)], 14, 16),
        Transaction(7, 2, 1, [write("y", 2)], 15, 16),
        # one start on others' commits: the start comes first, so the
        # read sees neither write
        Transaction(8, 3, 1, [read("y", None)], 16, 17),
    ]
    assert_same_order(txns)
    assert _describe(Chronos().check(ColumnarBatch.from_transactions(txns))) == [
        "EXT violated by txn 4 on key 'x': read 2, snapshot value is ⊥",
        "NOCONFLICT violated: txn 5 conflicts with {3} on key 'x'",
        "NOCONFLICT violated: txn 7 conflicts with {9} on key 'y'",
    ]


def test_timestamp_order_matches_tuple_sort():
    ts = [3, -1, 3, 0, -1, 3, 2**40, -(2**40), 2**62, -(2**63)]
    tids = [7, 2, -4, 7, 2, 0, 1, 1, 2**63 - 1, -(2**63)]
    for keep in (None, [1, 0, 1, 1, 0, 1, 0, 1, 1, 1], bytes([1, 1, 0, 0, 1, 1, 1, 1, 0, 1])):
        indices = [i for i in range(len(ts)) if keep is None or keep[i]]
        expected = [index for _, _, index in sorted((ts[i], tids[i], i) for i in indices)]
        assert list(timestamp_order(ts, tids, keep)) == expected
        assert list(timestamp_order(array("q", ts), array("q", tids), keep)) == expected
    assert list(timestamp_order([], [])) == []
    assert list(timestamp_order([5, 5], [1, 2], b"\0\0")) == []
