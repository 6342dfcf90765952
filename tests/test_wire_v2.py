"""Wire codec tests: JSONL equivalence and malformed-frame fuzzing.

Two claims carry the frame codec:

1. **Equivalence** — for every value shape a JSONL history row carries,
   a columnar submit decodes to exactly what the row decodes to (the
   shallow-tuple semantics included), and every control frame decodes
   to exactly the message it was built from.  Frames may be a strict
   extension (⊥v travels natively in columnar packs), never a
   divergence.
2. **Robustness** — a torn, truncated, oversized, bit-flipped, or
   wrong-magic frame raises :class:`ProtocolError`.  It never raises
   anything else, never crashes the decoder, and never silently returns
   a truncated batch.
"""

from __future__ import annotations

import json
import random
import struct

import pytest

from repro.core.common import BOTTOM
from repro.histories.model import Operation, OpKind, Transaction
from repro.histories.serialization import (
    ColumnarBatch,
    pack_columnar,
    txn_from_dict,
    txn_to_dict,
    unpack_columnar,
)
from repro.service.framing import (
    CLIENT_KIND_OF_TYPE,
    FRAME_MAGIC0,
    FRAME_MAGIC1,
    HEADER_SIZE,
    K_SUBMIT,
    MAX_PAYLOAD_BYTES,
    SERVER_KIND_OF_TYPE,
    TYPE_OF_KIND,
    decode_frame_header,
    decode_frame_payload,
    encode_json_frame,
    encode_submit_frame,
)
from repro.service.protocol import ProtocolError, encode_message


def txn(tid, ops, *, sid=1, sno=1, sts=None, cts=None):
    return Transaction(
        tid=tid,
        sid=sid,
        sno=sno,
        ops=[Operation(*op) for op in ops],
        start_ts=sts if sts is not None else tid * 10,
        commit_ts=cts if cts is not None else tid * 10 + 5,
    )


def jsonl_txn_round_trip(transaction):
    """The reference semantics: what a JSONL history row decodes to."""
    wire = json.loads(json.dumps(txn_to_dict(transaction)))
    return txn_from_dict(wire)


def v2_txn_round_trip(transaction):
    batch, consumed = unpack_columnar(pack_columnar([transaction]))
    assert consumed == len(pack_columnar([transaction]))
    (decoded,) = batch.transactions()
    return decoded


def assert_txns_equal(a, b):
    assert (a.tid, a.sid, a.sno, a.start_ts, a.commit_ts) == (
        b.tid,
        b.sid,
        b.sno,
        b.start_ts,
        b.commit_ts,
    )
    assert len(a.ops) == len(b.ops)
    for op_a, op_b in zip(a.ops, b.ops):
        assert op_a.kind is op_b.kind
        assert op_a.key == op_b.key
        assert op_a.value == op_b.value
        assert type(op_a.value) is type(op_b.value)


# Every value shape a JSONL row can carry, including the ones that
# historically bite: ⊥-adjacent sentinels, i64 boundaries, big ints that
# spill to JSON, shallow tuples whose nested sequences decode as lists,
# dicts whose keys collide with the "$" tag namespace, unicode keys.
TRICKY_VALUES = [
    None,
    True,
    False,
    0,
    -1,
    41,
    2**63 - 1,
    -(2**63),
    2**63,          # one past i64: must take the JSON spill path
    -(2**63) - 1,
    10**30,
    3.5,
    -0.0,
    1e308,
    "",
    "value",
    "ünïcodé ✓ 値",
    "$",
    (),
    (1, 2, 3),
    ("a", None, True),
    (1, (2, 3)),          # nested tuple: both codecs yield (1, [2, 3])
    ((), (1,), "x"),
    {"$": "bottom"},      # a *dict* that looks like a value tag
    {"k": [1, 2], "nested": {"deep": None}},
    {},
]


class TestSubmitCodecEquivalence:
    @pytest.mark.parametrize("value", TRICKY_VALUES, ids=repr)
    def test_single_value_equivalence(self, value):
        transaction = txn(
            1, [(OpKind.WRITE, "k", value), (OpKind.READ, "ünïkey ✓", value)]
        )
        via_jsonl = jsonl_txn_round_trip(transaction)
        via_frame = v2_txn_round_trip(transaction)
        assert_txns_equal(via_jsonl, via_frame)

    def test_every_op_kind(self):
        transaction = txn(
            2,
            [
                (OpKind.READ, "r", 7),
                (OpKind.WRITE, "w", "x"),
                (OpKind.APPEND, "l", 3),
                (OpKind.READ_LIST, "l", (1, 2, 3)),
            ],
        )
        assert_txns_equal(jsonl_txn_round_trip(transaction), v2_txn_round_trip(transaction))

    def test_bottom_is_a_strict_v2_extension(self):
        # ⊥v cannot travel in a JSONL row (json.dumps refuses it); the
        # columnar codec carries it natively and exactly.
        transaction = txn(3, [(OpKind.READ, "k", BOTTOM)])
        with pytest.raises(TypeError):
            json.dumps(txn_to_dict(transaction))
        assert v2_txn_round_trip(transaction).ops[0].value is BOTTOM

    def test_unencodable_value_is_a_shared_contract(self):
        # What JSONL cannot encode, a frame must also refuse — no silent
        # divergence.
        transaction = txn(4, [(OpKind.WRITE, "k", object())])
        with pytest.raises(TypeError):
            json.dumps(txn_to_dict(transaction))
        with pytest.raises(TypeError):
            pack_columnar([transaction])

    def test_large_batch_round_trip(self):
        rng = random.Random(1213)
        txns = []
        for tid in range(1, 801):
            ops = []
            for _ in range(rng.randrange(1, 6)):
                kind = rng.choice((OpKind.READ, OpKind.WRITE))
                key = f"key-{rng.randrange(40)}"
                ops.append((kind, key, rng.choice(TRICKY_VALUES)))
            txns.append(txn(tid, ops, sid=tid % 7, sno=tid // 7 + 1))
        batch, _ = unpack_columnar(pack_columnar(txns))
        assert len(batch) == len(txns)
        for original, decoded in zip(txns, batch.transactions()):
            assert_txns_equal(jsonl_txn_round_trip(original), decoded)

    def test_slices_partition_batch(self):
        txns = [txn(tid, [(OpKind.WRITE, "k", tid)]) for tid in range(1, 26)]
        batch, _ = unpack_columnar(pack_columnar(txns))
        pieces = list(batch.slices(7))
        assert [len(piece) for piece in pieces] == [7, 7, 7, 4]
        reassembled = [t for piece in pieces for t in piece.transactions()]
        for original, decoded in zip(txns, reassembled):
            assert_txns_equal(original, decoded)


class TestZeroCopyReceive:
    """The submit decode path must parse in place, never copying the
    payload before the columnar arrays are materialized."""

    def _payload(self):
        transaction = txn(1, [(OpKind.WRITE, "k", "v"), (OpKind.READ, "k", 7)])
        frame = encode_submit_frame([transaction], 7)
        return bytes(frame[HEADER_SIZE:])

    def _spy(self, monkeypatch):
        from repro.service import framing

        captured = {}
        real = framing.unpack_columnar

        def spy(buf, offset=0, memo=None):
            captured["buf"] = buf
            return real(buf, offset, memo)

        monkeypatch.setattr(framing, "unpack_columnar", spy)
        return captured

    def test_bytes_payload_is_wrapped_not_copied(self, monkeypatch):
        payload = self._payload()
        captured = self._spy(monkeypatch)
        message = decode_frame_payload(K_SUBMIT, payload)
        assert message["seq"] == 7
        buf = captured["buf"]
        assert type(buf) is memoryview
        # .obj identity: the view looks straight into the received bytes.
        assert buf.obj is payload

    def test_memoryview_payload_passes_through_unwrapped(self, monkeypatch):
        backing = self._payload()
        view = memoryview(backing)
        captured = self._spy(monkeypatch)
        decode_frame_payload(K_SUBMIT, view)
        assert captured["buf"] is view
        assert captured["buf"].obj is backing

    def test_decoded_batch_equals_copy_decoded_batch(self):
        payload = self._payload()
        via_view = decode_frame_payload(K_SUBMIT, memoryview(payload))
        via_bytes = decode_frame_payload(K_SUBMIT, bytes(payload))
        for a, b in zip(
            via_view["batch"].transactions(), via_bytes["batch"].transactions()
        ):
            assert_txns_equal(a, b)


def control_messages():
    """One representative message per frame kind (submit excluded)."""
    samples = {
        "hello": {"type": "hello", "client": "probe", "protocol": 2},
        "subscribe": {"type": "subscribe", "seq": 4, "replay": True},
        "stats": {"type": "stats", "seq": 5, "bytes": False},
        "drain": {"type": "drain", "seq": 6},
        "finalize": {"type": "finalize", "seq": 7},
        "shutdown": {"type": "shutdown"},
        "ping": {"type": "ping", "seq": 8},
        "welcome": {"type": "welcome", "protocol": 2, "checker": "aion", "level": "si"},
        "ack": {"type": "ack", "seq": 9, "enqueued": 500},
        "violation": {"type": "violation", "violation": {
            "axiom": "EXT", "tid": 3, "kind": "ext", "key": "ünïkey ✓",
            "expected": {"$": "bottom"}, "actual": {"$": "obj", "value": {"$": 1}},
        }},
        "drained": {"type": "drained", "seq": 10, "processed": 12_000},
        "result": {"type": "result", "valid": False, "summary": "1 violation",
                   "counts": {"EXT": 1}, "violations": []},
        "pong": {"type": "pong", "seq": 11},
        "error": {"type": "error", "seq": 12, "message": "nö ✗"},
        "bye": {"type": "bye"},
        "subscribed": {"type": "subscribed", "seq": 13},
    }
    for name, message in samples.items():
        kind = CLIENT_KIND_OF_TYPE.get(name) or SERVER_KIND_OF_TYPE[name]
        yield kind, message
    # "stats" names both a request and a reply; the reply kind differs.
    yield SERVER_KIND_OF_TYPE["stats"], {
        "type": "stats", "seq": 5, "stats": {"processed": 3, "wire": {}}
    }


class TestOpColumnChecks:
    """The op offset and op kind columns are checked whole, and each
    check refuses a submit in its own words — the same through the
    frame decoder as from ``unpack_columnar``."""

    KEYS = ("x", "y")

    def blob(self):
        """Four two-op transactions packed; returns the blob as a
        bytearray and where its op offsets and op kinds start."""
        txns = [
            txn(tid, [(OpKind.WRITE, "x", tid), (OpKind.READ, "y", tid)]) for tid in range(1, 5)
        ]
        blob = bytearray(pack_columnar(txns))
        n, n_keys, n_ops = struct.unpack_from("!III", blob)
        assert (n, n_keys, n_ops) == (4, 2, 8)
        offsets_at = 12 + sum(2 + len(key) for key in self.KEYS) + 5 * 8 * n
        assert struct.unpack_from(f"!{n + 1}I", blob, offsets_at) == (0, 2, 4, 6, 8)
        return blob, offsets_at, offsets_at + 4 * (n + 1)

    @staticmethod
    def refusal(blob):
        with pytest.raises(ValueError) as unpacked:
            unpack_columnar(bytes(blob))
        with pytest.raises(ProtocolError) as framed:
            decode_frame_payload(K_SUBMIT, struct.pack("!I", 1) + bytes(blob))
        assert str(framed.value) == str(unpacked.value)
        return str(unpacked.value)

    def test_offsets_that_do_not_cover_the_ops(self):
        blob, offsets_at, _ = self.blob()
        struct.pack_into("!I", blob, offsets_at + 16, 7)  # ..., 6, 7
        assert self.refusal(blob) == "columnar pack op offsets do not cover the op count"

    def test_offsets_that_go_back(self):
        blob, offsets_at, _ = self.blob()
        struct.pack_into("!I", blob, offsets_at + 4, 5)  # 0, 5, 4, 6, 8
        assert self.refusal(blob) == "columnar pack op offsets not monotonic"

    def test_unknown_op_code_names_the_first(self):
        blob, _, kinds_at = self.blob()
        assert bytes(blob[kinds_at : kinds_at + 8]) == bytes([1, 0] * 4)
        blob[kinds_at + 3] = 9
        blob[kinds_at + 5] = 4
        assert self.refusal(blob) == "unknown op code 9"


class TestControlFrameEquivalence:
    def test_covers_every_kind(self):
        covered = {kind for kind, _ in control_messages()} | {K_SUBMIT}
        assert covered == set(TYPE_OF_KIND)

    @pytest.mark.parametrize(
        "kind,message", list(control_messages()), ids=lambda p: str(p)
    )
    def test_frame_decodes_to_exactly_the_message(self, kind, message):
        frame = encode_json_frame(kind, message)
        got_kind, length = decode_frame_header(frame[:HEADER_SIZE])
        assert got_kind == kind
        payload = frame[HEADER_SIZE:]
        assert len(payload) == length
        assert decode_frame_payload(kind, payload) == message

    def test_first_byte_disambiguates(self):
        # A peer speaking ndjson fails at its first frame header: 0xA6
        # is not ASCII and not a UTF-8 leading byte, so no JSON line
        # starts with it.
        for kind, message in control_messages():
            assert encode_message(message)[0] != FRAME_MAGIC0
            assert encode_json_frame(kind, message)[0] == FRAME_MAGIC0
        assert encode_submit_frame([txn(1, [(OpKind.READ, "k", 1)])])[0] == FRAME_MAGIC0
        with pytest.raises(UnicodeDecodeError):
            bytes([FRAME_MAGIC0]).decode("utf-8")


class TestMalformedFrames:
    def submit_frame(self):
        txns = [
            txn(tid, [(OpKind.WRITE, f"key-{tid % 5}", tid), (OpKind.READ, "k", "v")])
            for tid in range(1, 40)
        ]
        return encode_submit_frame(txns, 17)

    def decode_full(self, frame):
        kind, length = decode_frame_header(frame[:HEADER_SIZE])
        payload = frame[HEADER_SIZE:]
        if len(payload) != length:
            raise ProtocolError(f"torn frame: {len(payload)} of {length} bytes")
        return decode_frame_payload(kind, payload)

    def test_wrong_magic(self):
        frame = bytearray(self.submit_frame())
        for index, original in ((0, FRAME_MAGIC0), (1, FRAME_MAGIC1)):
            mutated = bytearray(frame)
            mutated[index] = original ^ 0xFF
            with pytest.raises(ProtocolError):
                self.decode_full(bytes(mutated))

    def test_wrong_version(self):
        frame = bytearray(self.submit_frame())
        frame[2] = 3
        with pytest.raises(ProtocolError):
            self.decode_full(bytes(frame))

    def test_unknown_kind(self):
        frame = bytearray(self.submit_frame())
        frame[3] = 99
        with pytest.raises(ProtocolError):
            self.decode_full(bytes(frame))

    def test_oversized_length_rejected_from_header_alone(self):
        header = struct.pack(
            "!BBBBI", FRAME_MAGIC0, FRAME_MAGIC1, 2, K_SUBMIT, MAX_PAYLOAD_BYTES + 1
        )
        with pytest.raises(ProtocolError):
            decode_frame_header(header)

    def test_short_header(self):
        frame = self.submit_frame()
        for cut in range(HEADER_SIZE):
            with pytest.raises(ProtocolError):
                decode_frame_header(frame[:cut])

    def test_truncated_payload_every_boundary(self):
        # Chop the payload at every length: a torn frame must never
        # decode into a silently truncated batch.
        frame = self.submit_frame()
        kind, length = decode_frame_header(frame[:HEADER_SIZE])
        payload = frame[HEADER_SIZE:]
        full = decode_frame_payload(kind, payload)
        assert len(full["batch"]) == 39 and full["seq"] == 17
        step = 7  # every 7th cut keeps the test fast; 0..4 hit the seq prefix
        for cut in list(range(0, 5)) + list(range(5, length, step)):
            with pytest.raises(ProtocolError):
                decode_frame_payload(kind, payload[:cut])

    def test_trailing_garbage_rejected(self):
        frame = self.submit_frame()
        kind, _ = decode_frame_header(frame[:HEADER_SIZE])
        with pytest.raises(ProtocolError):
            decode_frame_payload(kind, frame[HEADER_SIZE:] + b"\x00")

    def test_byte_flips_never_crash(self):
        # A flipped payload byte may still decode (e.g. a character
        # inside a value string) — but it must either decode into a
        # well-formed batch or raise ProtocolError, never anything else.
        frame = self.submit_frame()
        kind, _ = decode_frame_header(frame[:HEADER_SIZE])
        payload = bytearray(frame[HEADER_SIZE:])
        rng = random.Random(42)
        outcomes = {"ok": 0, "rejected": 0}
        for _ in range(400):
            index = rng.randrange(len(payload))
            original = payload[index]
            payload[index] ^= 1 << rng.randrange(8)
            try:
                message = decode_frame_payload(kind, bytes(payload))
            except ProtocolError:
                outcomes["rejected"] += 1
            else:
                assert isinstance(message["batch"], ColumnarBatch)
                outcomes["ok"] += 1
            finally:
                payload[index] = original
        # The corpus must actually exercise the rejection path.
        assert outcomes["rejected"] > 0

    def test_json_frame_kind_type_mismatch(self):
        message = {"type": "ping", "seq": 1}
        frame = encode_json_frame(CLIENT_KIND_OF_TYPE["stats"], message)
        kind, _ = decode_frame_header(frame[:HEADER_SIZE])
        with pytest.raises(ProtocolError):
            decode_frame_payload(kind, frame[HEADER_SIZE:])

    def test_json_frame_payload_garbage(self):
        for payload in (b"not json", b"[1,2]", b'"str"', b"\xff\xfe"):
            with pytest.raises(ProtocolError):
                decode_frame_payload(CLIENT_KIND_OF_TYPE["ping"], payload)

    def test_submit_payload_too_short_for_seq(self):
        for payload in (b"", b"\x00", b"\x00\x00\x00"):
            with pytest.raises(ProtocolError):
                decode_frame_payload(K_SUBMIT, payload)
