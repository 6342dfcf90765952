"""Protocol v2: length-prefixed binary frames.

The framing sibling of :mod:`repro.service.protocol` — see that module's
docstring for the full wire contract (frame layout, handshake, when to
prefer v1).  The short version::

    0      1      2      3      4              8
    +------+------+------+------+--------------+----------------+
    | 0xA6 | 0x52 | ver  | kind |  length u32  | payload ...    |
    +------+------+------+------+--------------+----------------+

Exactly one message kind — ``submit`` — carries a binary payload: a u32
acknowledgement sequence number (0 = fire-and-forget) followed by one
:func:`~repro.core.colpack.pack_columnar` blob, so a batch of
transactions crosses the wire as flat struct-packed columns and decodes
straight into the checkers' batch-kernel layout.  Every other kind wraps
the *unchanged* protocol-v1 JSON message as its payload; the kind byte
is redundant with the payload's ``"type"`` field and is validated
against it, which keeps one codec for control traffic and makes v2↔v1
equivalence trivial for everything but ``submit``.

``0xA6`` is not a valid first byte of JSON or UTF-8 text, so a reader
can tell a frame from an ndjson line by its first byte — both protocols
share one port, and the per-connection mode is only a send-side choice.

All decode errors raise :class:`~repro.service.protocol.ProtocolError`;
torn frames surface as short reads (the transport layer's concern), and
a frame longer than :data:`MAX_PAYLOAD_BYTES` is rejected from its
header alone, before any payload is buffered.
"""

from __future__ import annotations

import json
import struct
from typing import TYPE_CHECKING, Any, Dict, Optional, Sequence, Tuple, Union

from repro.core.colpack import ColumnarBatch, pack_columnar, unpack_columnar
from repro.service.protocol import ProtocolError

if TYPE_CHECKING:  # the client-side encoder's annotation only
    from repro.histories.model import Transaction

__all__ = [
    "FRAME_MAGIC0",
    "FRAME_MAGIC1",
    "FRAME_VERSION",
    "HEADER_SIZE",
    "MAX_PAYLOAD_BYTES",
    "CLIENT_KIND_OF_TYPE",
    "SERVER_KIND_OF_TYPE",
    "TYPE_OF_KIND",
    "K_HELLO",
    "K_SUBMIT",
    "K_VIOLATION",
    "K_WELCOME",
    "encode_json_frame",
    "encode_hello_frame",
    "encode_submit_frame",
    "decode_frame_header",
    "decode_frame_payload",
]

#: First header byte.  0xA6 is a UTF-8 continuation byte, so it can
#: never start an ndjson line — per-message auto-detection is one
#: byte of lookahead.
FRAME_MAGIC0 = 0xA6
FRAME_MAGIC1 = 0x52
FRAME_VERSION = 2

_HEADER = struct.Struct("!BBBBI")
HEADER_SIZE = _HEADER.size  # 8

#: Hard payload bound, mirroring the ndjson reader's line bound: one
#: malformed (or hostile) producer must not balloon the reader's buffer.
MAX_PAYLOAD_BYTES = 16 * 1024 * 1024

_U32 = struct.Struct("!I")

# Message kinds.  Client requests in 1..15, server replies in 16..31;
# the split resolves the one type-string collision ("stats" is both a
# request and a reply).
K_HELLO = 1
K_SUBMIT = 2
K_SUBSCRIBE = 3
K_STATS = 4
K_DRAIN = 5
K_FINALIZE = 6
K_SHUTDOWN = 7
K_PING = 8
K_WELCOME = 16
K_ACK = 17
K_VIOLATION = 18
K_STATS_REPLY = 19
K_DRAINED = 20
K_RESULT = 21
K_PONG = 22
K_ERROR = 23
K_BYE = 24
K_SUBSCRIBED = 25

CLIENT_KIND_OF_TYPE: Dict[str, int] = {
    "hello": K_HELLO,
    "submit": K_SUBMIT,
    "subscribe": K_SUBSCRIBE,
    "stats": K_STATS,
    "drain": K_DRAIN,
    "finalize": K_FINALIZE,
    "shutdown": K_SHUTDOWN,
    "ping": K_PING,
}
SERVER_KIND_OF_TYPE: Dict[str, int] = {
    "welcome": K_WELCOME,
    "ack": K_ACK,
    "violation": K_VIOLATION,
    "stats": K_STATS_REPLY,
    "drained": K_DRAINED,
    "result": K_RESULT,
    "pong": K_PONG,
    "error": K_ERROR,
    "bye": K_BYE,
    "subscribed": K_SUBSCRIBED,
}
TYPE_OF_KIND: Dict[int, str] = {
    **{kind: name for name, kind in CLIENT_KIND_OF_TYPE.items()},
    **{kind: name for name, kind in SERVER_KIND_OF_TYPE.items()},
}


def encode_json_frame(kind: int, message: Dict[str, Any]) -> bytes:
    """Frame one control message (anything but ``submit``) as v2.

    The payload is the protocol-v1 JSON encoding of ``message`` without
    the trailing newline.
    """
    payload = json.dumps(message, separators=(",", ":"), ensure_ascii=False).encode(
        "utf-8"
    )
    return (
        _HEADER.pack(FRAME_MAGIC0, FRAME_MAGIC1, FRAME_VERSION, kind, len(payload))
        + payload
    )


def encode_hello_frame(
    client: str = "repro-client",
    *,
    session: bool = False,
    session_token: Union[str, None] = None,
    resume_from: Union[int, None] = None,
) -> bytes:
    """The v2 upgrade ``hello`` frame, optionally opening/resuming a session.

    With ``session=False`` this is the plain protocol upgrade.  With
    ``session=True`` the hello carries ``session_token`` (``None`` asks
    the daemon to mint one) and, when resuming, ``resume_from`` — the
    client's highest acked submit sequence number, which the daemon
    cross-checks against its own watermark (see
    :mod:`repro.service.protocol`, *Sessions and resume*).
    """
    message: Dict[str, Any] = {"type": "hello", "client": client, "protocol": 2}
    if session or session_token is not None:
        message["session_token"] = session_token
        if resume_from is not None:
            message["resume_from"] = resume_from
    return encode_json_frame(K_HELLO, message)


def encode_submit_frame(
    txns: Union[Sequence[Transaction], ColumnarBatch], seq: int = 0
) -> bytes:
    """Pack a submit batch as one vectored v2 frame.

    ``seq`` requests an ``ack`` carrying the same number once the batch
    is admitted; 0 means fire-and-forget.  The transactions are packed
    columnar in a single walk — no per-transaction JSON objects.
    """
    blob = pack_columnar(txns)
    return (
        _HEADER.pack(FRAME_MAGIC0, FRAME_MAGIC1, FRAME_VERSION, K_SUBMIT, 4 + len(blob))
        + _U32.pack(seq)
        + blob
    )


def decode_frame_header(header: bytes) -> Tuple[int, int]:
    """Validate an 8-byte frame header; returns ``(kind, payload length)``."""
    try:
        magic0, magic1, version, kind, length = _HEADER.unpack(header)
    except struct.error as exc:
        raise ProtocolError(f"short frame header: {exc}") from None
    if magic0 != FRAME_MAGIC0 or magic1 != FRAME_MAGIC1:
        raise ProtocolError(
            f"bad frame magic 0x{magic0:02x}{magic1:02x} "
            f"(expected 0x{FRAME_MAGIC0:02x}{FRAME_MAGIC1:02x})"
        )
    if version != FRAME_VERSION:
        raise ProtocolError(f"unsupported frame version {version}")
    if kind not in TYPE_OF_KIND:
        raise ProtocolError(f"unknown frame kind {kind}")
    if length > MAX_PAYLOAD_BYTES:
        raise ProtocolError(
            f"frame payload of {length} bytes exceeds the {MAX_PAYLOAD_BYTES}-byte bound"
        )
    return kind, length


def decode_frame_payload(
    kind: int, payload: Union[bytes, memoryview], memo: Optional[Dict[str, str]] = None
) -> Dict[str, Any]:
    """Decode one frame's payload into a message dict.

    ``submit`` frames return ``{"type": "submit", "seq": n | None,
    "batch": ColumnarBatch}`` — the columnar arrays go on to feed the
    checker's batch kernel directly.  The payload is decoded through a
    ``memoryview``, so the key table and value columns are sliced in
    place from the frame buffer (zero-copy receive); callers may hand in
    a view over a larger receive buffer directly; ``memo`` (the daemon
    keeps one per connection) is handed to :func:`unpack_columnar`, so
    every frame it decodes shares one object per distinct key.  Every
    other kind returns the embedded JSON message, validated against the
    kind byte.  All malformations raise :class:`ProtocolError`; a
    partially decodable batch is never returned.
    """
    if kind == K_SUBMIT:
        if len(payload) < 4:
            raise ProtocolError("submit frame too short for its sequence number")
        view = payload if type(payload) is memoryview else memoryview(payload)
        (seq,) = _U32.unpack_from(view)
        try:
            batch, consumed = unpack_columnar(view, 4, memo)
        except ValueError as exc:
            raise ProtocolError(str(exc)) from None
        if consumed != len(view):
            raise ProtocolError(
                f"submit frame has {len(view) - consumed} trailing bytes"
            )
        return {"type": "submit", "seq": seq if seq else None, "batch": batch}
    try:
        message = json.loads(payload if type(payload) is not memoryview else bytes(payload))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"frame payload is not valid JSON: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame payload must be a JSON object, got {type(message).__name__}"
        )
    expected = TYPE_OF_KIND[kind]
    if message.get("type") != expected:
        raise ProtocolError(
            f"frame kind {kind} ({expected}) carries a "
            f"{message.get('type')!r} message"
        )
    return message
