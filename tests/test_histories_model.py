"""Tests for the Operation / Transaction / History data model."""

import pytest

from repro.histories.model import (
    INIT_TID,
    History,
    Operation,
    OpKind,
    Transaction,
)
from repro.histories.ops import append, read, read_list, write


def _txn(tid=1, sid=1, sno=0, ops=(), start=1, commit=2):
    return Transaction(tid=tid, sid=sid, sno=sno, ops=ops, start_ts=start, commit_ts=commit)


class TestOperation:
    def test_repr_notation(self):
        assert repr(read("x", 1)) == "R(x, 1)"
        assert repr(write("x", 1)) == "W(x, 1)"
        assert repr(append("l", 3)) == "A(l, 3)"
        assert repr(read_list("l", [1, 2])) == "RL(l, (1, 2))"

    def test_read_list_coerces_tuple(self):
        op = Operation(OpKind.READ_LIST, "l", [1, 2, 3])
        assert op.value == (1, 2, 3)

    def test_predicates(self):
        assert read("x", 1).is_read and not read("x", 1).is_write
        assert write("x", 1).is_write and not write("x", 1).is_read
        assert append("l", 1).is_write
        assert read_list("l", []).is_read

    def test_equality_and_hash(self):
        assert read("x", 1) == read("x", 1)
        assert read("x", 1) != write("x", 1)
        assert len({read("x", 1), read("x", 1), write("x", 1)}) == 2


class TestTransactionDerivedViews:
    def test_write_keys_and_last_writes(self):
        txn = _txn(ops=[write("a", 1), write("b", 2), write("a", 3)])
        assert txn.write_keys == {"a", "b"}
        assert txn.last_writes == {"a": 3, "b": 2}

    def test_external_reads_first_op_per_key(self):
        txn = _txn(ops=[read("a", 1), read("a", 2), write("b", 1), read("b", 1)])
        assert set(txn.external_reads) == {"a"}
        assert txn.external_reads["a"].value == 1  # first read, not second

    def test_read_after_write_is_internal(self):
        txn = _txn(ops=[write("a", 1), read("a", 1)])
        assert "a" not in txn.external_reads

    def test_read_only(self):
        assert _txn(ops=[read("a", 1)]).is_read_only
        assert not _txn(ops=[append("a", 1)]).is_read_only

    def test_overlaps(self):
        a = _txn(tid=1, start=1, commit=5)
        b = _txn(tid=2, start=5, commit=9)
        c = _txn(tid=3, start=6, commit=7)
        assert a.overlaps(b) and b.overlaps(a)
        assert not a.overlaps(c)

    def test_identity_by_tid(self):
        assert _txn(tid=7) == _txn(tid=7, ops=[write("z", 1)], start=9, commit=10)
        assert _txn(tid=7) != _txn(tid=8)


class TestHistory:
    def test_duplicate_tid_rejected(self):
        with pytest.raises(ValueError):
            History([_txn(tid=1), _txn(tid=1, start=3, commit=4)])

    def test_sessions_grouped_and_sorted(self):
        txns = [
            _txn(tid=1, sid=1, sno=1, start=3, commit=4),
            _txn(tid=2, sid=1, sno=0, start=1, commit=2),
            _txn(tid=3, sid=2, sno=0, start=5, commit=6),
        ]
        history = History(txns)
        assert [t.tid for t in history.sessions[1]] == [2, 1]
        assert [t.tid for t in history.sessions[2]] == [3]

    def test_by_commit_ts(self):
        txns = [_txn(tid=1, start=1, commit=9), _txn(tid=2, start=2, commit=3)]
        assert [t.tid for t in History(txns).by_commit_ts()] == [2, 1]

    def test_keys_and_op_count(self):
        history = History([_txn(ops=[write("a", 1), read("b", 0)])])
        assert history.keys() == {"a", "b"}
        assert history.op_count() == 2

    def test_init_transaction_lookup(self):
        init = Transaction(INIT_TID, 0, 0, [write("a", 0)], 0, 0)
        history = History([init, _txn(tid=1)])
        assert history.init_transaction is init
        assert [t.tid for t in history.without_init()] == [1]

    def test_subset(self):
        history = History([_txn(tid=1), _txn(tid=2, start=3, commit=4)])
        assert len(history.subset(1)) == 1

    def test_get_and_contains(self):
        history = History([_txn(tid=9)])
        assert history.get(9).tid == 9
        assert 9 in history and 10 not in history
        with pytest.raises(KeyError):
            history.get(10)
