"""Builder, serialization, validation and statistics tests."""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.histories.builder import HistoryBuilder
from repro.histories.model import History, OpKind, Transaction
from repro.histories.ops import append, read, read_list, write
from repro.histories.serialization import (
    ColumnarBatch,
    columns_from_jsonl,
    columns_from_rows,
    history_from_jsonl,
    history_to_jsonl,
    load_columns,
    load_history,
    load_history_packed,
    save_history,
    save_history_packed,
    txn_from_dict,
    txn_to_dict,
)
from repro.histories.stats import HistoryStats


class TestBuilder:
    def test_auto_init_covers_mentioned_keys(self):
        b = HistoryBuilder()
        b.txn(sid=1, ops=[write("x", 1), read("y", 0)])
        history = b.build()
        init = history.init_transaction
        assert init is not None
        assert init.write_keys == {"x", "y"}

    def test_declared_keys_init(self):
        b = HistoryBuilder(keys=["a", "b"], initial_value=7)
        b.txn(sid=1, ops=[read("a", 7)])
        init = b.build().init_transaction
        assert init.last_writes == {"a": 7, "b": 7}

    def test_without_init(self):
        b = HistoryBuilder(with_init=False)
        b.txn(sid=1, ops=[write("x", 1)])
        assert b.build().init_transaction is None

    def test_auto_timestamps_unique_and_ordered(self):
        b = HistoryBuilder()
        t1 = b.txn(sid=1, ops=[write("x", 1)])
        t2 = b.txn(sid=1, ops=[write("x", 2)])
        stamps = {t1.start_ts, t1.commit_ts, t2.start_ts, t2.commit_ts}
        assert len(stamps) == 4
        assert t1.commit_ts < t2.start_ts

    def test_read_only_gets_equal_timestamps(self):
        b = HistoryBuilder()
        t = b.txn(sid=1, ops=[read("x", 0)])
        assert t.start_ts == t.commit_ts

    def test_auto_sno_per_session(self):
        b = HistoryBuilder()
        assert b.txn(sid=1, ops=[write("x", 1)]).sno == 0
        assert b.txn(sid=2, ops=[write("x", 2)]).sno == 0
        assert b.txn(sid=1, ops=[write("x", 3)]).sno == 1

    def test_duplicate_tid_rejected(self):
        b = HistoryBuilder()
        b.txn(sid=1, tid=5, ops=[write("x", 1)])
        with pytest.raises(ValueError):
            b.txn(sid=1, tid=5, ops=[write("x", 2)])

    def test_duplicate_timestamp_rejected(self):
        b = HistoryBuilder()
        b.txn(sid=1, start=10, commit=11, ops=[write("x", 1)])
        with pytest.raises(ValueError):
            b.txn(sid=2, start=11, commit=12, ops=[write("x", 2)])

    def test_reserved_session_rejected(self):
        b = HistoryBuilder()
        with pytest.raises(ValueError):
            b.txn(sid=0, ops=[write("x", 1)])


class TestSerialization:
    def test_txn_dict_roundtrip_all_op_kinds(self):
        txn = Transaction(
            tid=3,
            sid=2,
            sno=1,
            ops=[write("x", 5), read("y", None), append("l", 9), read_list("l", [1, 9])],
            start_ts=10,
            commit_ts=12,
        )
        back = txn_from_dict(txn_to_dict(txn))
        assert back.tid == 3 and back.sid == 2 and back.sno == 1
        assert back.start_ts == 10 and back.commit_ts == 12
        assert list(back.ops) == list(txn.ops)
        assert back.ops[3].value == (1, 9)  # tuple restored from JSON list

    def test_jsonl_roundtrip(self, si_history):
        text = history_to_jsonl(si_history)
        back = history_from_jsonl(text)
        assert len(back) == len(si_history)
        for original, restored in zip(si_history, back):
            assert original.tid == restored.tid
            assert list(original.ops) == list(restored.ops)

    def test_file_roundtrip(self, tmp_path, list_history):
        path = tmp_path / "h.jsonl"
        save_history(list_history, path)
        back = load_history(path)
        assert len(back) == len(list_history)
        assert back.get(1).ops == list_history.get(1).ops

    def test_unknown_op_code_rejected(self):
        with pytest.raises(ValueError):
            txn_from_dict(
                {"tid": 1, "sid": 1, "sno": 0, "sts": 1, "cts": 2, "ops": [["zz", "x", 1]]}
            )

    def test_blank_lines_ignored(self):
        b = HistoryBuilder()
        b.txn(sid=1, ops=[write("x", 1)])
        text = history_to_jsonl(b.build()) + "\n\n\n"
        assert len(history_from_jsonl(text)) == 2


@settings(max_examples=100, deadline=None)
@given(
    data=st.lists(
        st.tuples(
            st.sampled_from(["r", "w"]),
            st.sampled_from(["a", "b", "c"]),
            st.integers(-5, 5),
        ),
        min_size=1,
        max_size=8,
    ),
    sts=st.integers(1, 100),
)
def test_serialization_roundtrip_property(data, sts):
    ops = [read(k, v) if kind == "r" else write(k, v) for kind, k, v in data]
    txn = Transaction(tid=1, sid=1, sno=0, ops=ops, start_ts=sts, commit_ts=sts + 1)
    back = txn_from_dict(txn_to_dict(txn))
    assert list(back.ops) == ops
    assert back.write_keys == txn.write_keys
    assert back.external_read_positions == txn.external_read_positions


def _as_rows(txns):
    """Everything a transaction carries, ops as comparable triples."""
    return [
        (t.tid, t.sid, t.sno, t.start_ts, t.commit_ts,
         [(op.kind, op.key, op.value) for op in t.ops])
        for t in txns
    ]


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=6,
)
_wire_ops = st.lists(
    st.tuples(st.sampled_from(["r", "w", "a"]), st.sampled_from(["x", "y", "k9"]), _json_values)
    | st.tuples(st.just("rl"), st.sampled_from(["x", "l"]), st.lists(_json_values, max_size=3)),
    max_size=5,
)


@settings(max_examples=150, deadline=None)
@given(
    txns=st.lists(st.tuples(st.integers(0, 50), st.integers(0, 9), st.integers(0, 99), _wire_ops), max_size=6),
    blanks=st.lists(st.integers(0, 6), max_size=3),
)
def test_column_decoder_equals_object_decoder(txns, blanks):
    """JSONL -> columns -> transactions() is txn_from_dict line by line:
    nested arrays, None, dict values, empty op lists, blank lines — and
    so is the row decoder the daemon's ndjson edge uses."""
    lines = [
        json.dumps({"tid": tid, "sid": sid, "sno": sno, "sts": ts, "cts": ts + 1, "ops": ops})
        for tid, (sid, sno, ts, ops) in enumerate(txns)
    ]
    expected = [txn_from_dict(json.loads(line)) for line in lines]
    from_rows = columns_from_rows(json.loads(line) for line in lines)
    assert _as_rows(from_rows.transactions()) == _as_rows(expected)
    assert len(from_rows.op_kinds) == len(from_rows.op_keys) == from_rows.op_offsets[-1]
    for at in blanks:
        lines.insert(min(at, len(lines)), "  ")
    batch = columns_from_jsonl(line + "\n" for line in lines)
    assert _as_rows(batch.transactions()) == _as_rows(expected)
    assert len(batch.op_kinds) == len(batch.op_keys) == len(batch.op_values) == batch.op_offsets[-1]


class TestColumnDecoderRefusals:
    GOOD = '{"tid":1,"sid":1,"sno":0,"sts":1,"cts":2,"ops":[["w","x",1]]}'

    @pytest.mark.parametrize(
        "bad, what",
        [
            ('{"tid":2,"sid":1', "line 3: "),                                             # bad JSON
            ('{"tid":2,"sid":1,"sno":1,"sts":3,"cts":4,"ops":[]} trailing', "extra data"),
            ('{"tid":2,"sid":1,"sno":1,"cts":4,"ops":[]}', "missing field 'sts'"),
            ('{"tid":2,"sid":1,"sno":1,"sts":3,"cts":4}', "missing field 'ops'"),
            ('{"tid":2,"sid":1,"sno":1,"sts":3,"cts":4,"ops":[["w","x"]]}', "malformed ops"),
            ('{"tid":2,"sid":1,"sno":1,"sts":3,"cts":4,"ops":[7]}', "malformed ops"),
            ('{"tid":2,"sid":1,"sno":1,"sts":3,"cts":4,"ops":7}', "malformed ops"),
            ('{"tid":2,"sid":1,"sno":1,"sts":3,"cts":4,"ops":[["rl","x",null]]}', "malformed ops"),
            ('{"tid":2,"sid":1,"sno":1,"sts":3,"cts":4,"ops":[["zz","x",1]]}', "unknown operation code 'zz'"),
            ('{"tid":2,"sid":1,"sno":1,"sts":3,"cts":4,"ops":["wxy"]}', "malformed ops"),
            ('{"tid":2,"sid":1,"sno":1,"sts":3,"cts":4,"ops":[{"w":1,"x":2,"y":3}]}', "malformed ops"),
            ('{"tid":2,"sid":1,"sno":1,"sts":3,"cts":4,"ops":[["w",[1],5]]}', "key must be a string"),
            ('{"tid":2,"sid":1,"sno":1,"sts":3,"cts":4,"ops":[["w",null,5]]}', "key must be a string"),
            ('{"tid":2,"sid":1,"sno":1,"sts":3,"cts":false,"ops":[]}', "'cts' must be a 64-bit integer"),
            ('{"tid":2,"sid":1,"sno":9223372036854775808,"sts":3,"cts":4,"ops":[]}',
             "'sno' must be a 64-bit integer"),
            ('{"tid":2,"sid":1,"sno":1,"sts":3,"cts":4,"ops":[["rl","l","abc"]]}', "malformed ops"),
            ('{"tid":2,"sid":1,"sno":1,"sts":3,"cts":4,"ops":[["rl","l",{"a":1}]]}', "malformed ops"),
            ('{"tid":1,"sid":1,"sno":1,"sts":3,"cts":4,"ops":[]}', "duplicate transaction id 1"),
            ("[1, 2]", "not a transaction object"),
        ],
    )
    def test_refusal_names_the_line(self, bad, what):
        with pytest.raises(ValueError, match="^line 3: ") as excinfo:
            columns_from_jsonl([self.GOOD, "", bad, self.GOOD])
        assert what in str(excinfo.value)

    def test_row_decoder_refuses_what_txn_from_dict_refuses(self):
        """Same refusals as the object decoder, exception type included —
        minus duplicate tids, which only a history file forbids."""
        good = json.loads(self.GOOD)
        for bad, error in [
            ({k: v for k, v in good.items() if k != "sts"}, KeyError),
            ({k: v for k, v in good.items() if k != "ops"}, KeyError),
            ({**good, "ops": [["w", "x"]]}, ValueError),
            ({**good, "ops": 7}, ValueError),
            ({**good, "ops": [["rl", "x", None]]}, ValueError),
            ({**good, "ops": [["zz", "x", 1]]}, ValueError),
            ({**good, "ops": ["wxy"]}, ValueError),
            ({**good, "ops": [("w", "x", 1)]}, ValueError),
            ({**good, "ops": [["w", 7, 1]]}, ValueError),
            ({**good, "ops": [["rl", "l", "abc"]]}, ValueError),
            ({**good, "ops": [["rl", "l", {"a": 1}]]}, ValueError),
            ({**good, "sno": "0"}, ValueError),
            ({**good, "sid": True}, ValueError),
            ({**good, "tid": 2**63}, ValueError),
            ({**good, "cts": -(2**63) - 1}, ValueError),
            ([1, 2], TypeError),
        ]:
            with pytest.raises(error) as from_rows:
                columns_from_rows([good, bad])
            with pytest.raises(error) as from_dict:
                [txn_from_dict(row) for row in (good, bad)]
            assert str(from_rows.value) == str(from_dict.value)
        assert list(columns_from_rows([good, good]).tids) == [1, 1]
        assert len(columns_from_rows([])) == 0 and list(columns_from_rows([]).op_offsets) == [0]

    @pytest.mark.parametrize(
        "ops, what",
        [('[["rl","l","abc"]]', "malformed ops"), ('[["rl","l",{"a":1}]]', "malformed ops"),
         ('[["rl","l",[1,2]]]', None)],
    )
    def test_read_list_value_must_be_an_array(self, tmp_path, ops, what):
        """A string read-list value decoded as its characters, an object
        as its keys.  Every decoder now refuses both; an array still reads."""
        text = self.GOOD + "\n" + self.GOOD.replace('"tid":1', '"tid":2').replace('[["w","x",1]]', ops)
        path = tmp_path / "h.jsonl"
        path.write_text(text + "\n")
        decoders = [lambda: history_from_jsonl(text), lambda: load_history(path),
                    lambda: load_columns(path), lambda: columns_from_jsonl(text.splitlines())]
        for decode in decoders:
            if what is None:
                assert len(decode()) == 2
            else:
                with pytest.raises(ValueError, match=what):
                    decode()
        if what is None:
            assert history_from_jsonl(text).get(2).ops[0].value == (1, 2)

    @pytest.mark.parametrize(
        "layout, what",
        [
            # A blank line between the two occurrences.
            (["1", "", "  ", "1"], "line 4: duplicate transaction id 1"),
            # Blank lines before, between and after; tid 2 repeats first.
            (["", "1", "2", "", "2", "", "1", ""], "line 5: duplicate transaction id 2"),
            (["2", "1", "", "3", "1", "2"], "line 5: duplicate transaction id 1"),
        ],
    )
    def test_duplicate_names_its_second_line_blank_lines_counted(self, layout, what):
        """The repeat is found by one sort of the decoded tid column; the
        message still names the line of the first second occurrence in
        file order, counting the skipped lines."""
        lines = [self.GOOD.replace('"tid":1', f'"tid":{tid}') if tid.strip() else tid for tid in layout]
        with pytest.raises(ValueError) as excinfo:
            columns_from_jsonl(lines)
        assert str(excinfo.value) == what

    def test_a_decode_error_is_reported_before_a_duplicate(self, tmp_path):
        """Repeats are looked for once the whole file has decoded, so a
        later malformed row wins over an earlier duplicate — for JSONL and
        for packed files alike."""
        bad = self.GOOD.replace('"w"', '"q"').replace('"tid":1', '"tid":5')
        with pytest.raises(ValueError, match="^line 4: unknown operation code 'q'$"):
            columns_from_jsonl([self.GOOD, self.GOOD, "", bad])
        packed = tmp_path / "h.rpch"
        txns = [txn_from_dict(json.loads(self.GOOD))] * 2
        save_history_packed(txns, packed, chunk_size=1)
        with pytest.raises(ValueError, match="duplicate transaction id 1$"):
            load_columns(packed)
        packed.write_bytes(packed.read_bytes()[:-3])
        with pytest.raises(ValueError, match=f"^{re.escape(str(packed))}: .*truncated"):
            load_columns(packed)

    def test_file_errors_carry_path_and_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(self.GOOD + "\n" + self.GOOD.replace('"w"', '"q"').replace('"tid":1', '"tid":2') + "\n")
        with pytest.raises(ValueError) as excinfo:
            load_columns(path)
        assert str(excinfo.value) == f"{path}:2: unknown operation code 'q'"

    def test_invalid_utf8_names_the_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(self.GOOD.encode() + b"\n\xff\xfe\n")
        with pytest.raises(ValueError, match=f"^{path}:2: "):
            load_columns(path)


class TestLoadColumns:
    def test_both_file_forms_decode_to_the_same_columns(self, tmp_path, list_history):
        jsonl, packed = tmp_path / "h.jsonl", tmp_path / "h.rpch"
        save_history(list_history, jsonl)
        save_history_packed(list_history, packed, chunk_size=97)  # several chunks
        rows = _as_rows(list_history.transactions)
        assert _as_rows(load_columns(jsonl).transactions()) == rows
        assert _as_rows(load_columns(packed).transactions()) == rows
        assert _as_rows(load_history_packed(packed).transactions) == rows

    def test_empty_files(self, tmp_path):
        jsonl, packed = tmp_path / "h.jsonl", tmp_path / "h.rpch"
        jsonl.write_text("")
        save_history_packed([], packed)
        assert len(load_columns(jsonl)) == len(load_columns(packed)) == 0
        assert list(load_columns(packed).op_offsets) == [0]

    def test_packed_duplicate_tid_and_truncation_refused(self, tmp_path, si_history):
        packed = tmp_path / "h.rpch"
        txns = si_history.transactions[:10]
        save_history_packed(txns + txns[:1], packed)
        with pytest.raises(ValueError) as excinfo:
            load_columns(packed)
        assert str(excinfo.value) == f"{packed}: duplicate transaction id {txns[0].tid}"
        save_history_packed(txns, packed)
        packed.write_bytes(packed.read_bytes()[:-3])
        with pytest.raises(ValueError, match=f"^{packed}: .*truncated"):
            load_columns(packed)

    def test_concat_and_from_transactions(self, si_history):
        txns = si_history.transactions[:60]
        parts = [ColumnarBatch.from_transactions(txns[lo : lo + 25]) for lo in range(0, 60, 25)]
        whole = ColumnarBatch.concat(parts)
        assert _as_rows(whole.transactions()) == _as_rows(txns)
        assert list(whole.op_offsets) == list(ColumnarBatch.from_transactions(txns).op_offsets)


class TestStats:
    def test_counts_exclude_init(self):
        b = HistoryBuilder(keys=["x", "l"])
        b.txn(sid=1, ops=[write("x", 1), read("x", 1)])
        b.txn(sid=2, ops=[append("l", 1), read_list("l", [1])])
        stats = HistoryStats.of(b.build())
        assert stats.n_transactions == 2
        assert stats.n_sessions == 2
        assert stats.n_operations == 4
        assert stats.n_reads == 1 and stats.n_writes == 1
        assert stats.n_appends == 1 and stats.n_list_reads == 1
        assert stats.read_ratio == 0.5
        assert stats.ops_per_txn == 2.0

    def test_empty_history(self):
        stats = HistoryStats.of(History([]))
        assert stats.n_transactions == 0
        assert stats.ops_per_txn == 0.0
        assert stats.read_ratio == 0.0

    def test_generated_matches_spec(self, si_history):
        stats = HistoryStats.of(si_history)
        assert stats.n_transactions == 1_500
        assert stats.n_sessions == 12
        assert abs(stats.ops_per_txn - 10) < 0.01
        assert 0.4 < stats.read_ratio < 0.6
