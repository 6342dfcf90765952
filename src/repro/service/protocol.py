"""The checker service's wire protocol: ndjson (v1) and binary frames (v2).

Two codecs share one port and one message vocabulary:

**v1 — ndjson.**  Every message is a single JSON object terminated by
``\\n`` (UTF-8, no embedded newlines) — the same framing the history
files use, so a producer that can append to a JSONL history can speak to
the daemon with a two-line change.  Each object carries a ``type``
field; everything else is type-specific.

**v2 — length-prefixed binary frames** (:mod:`repro.service.framing`)::

    0      1      2      3      4              8
    +------+------+------+------+--------------+----------------+
    | 0xA6 | 0x52 | ver  | kind |  length u32  | payload ...    |
    +------+------+------+------+--------------+----------------+

``0xA6`` is a UTF-8 continuation byte, so it can never start an ndjson
line: the reader classifies every incoming message by its first byte,
and a single connection may even interleave the two codecs.  Control
messages (everything below except ``submit``) carry their v1 JSON object
verbatim as the frame payload; only ``submit`` is binary — a u32 ack
sequence number followed by a columnar pack
(:func:`repro.core.colpack.pack_columnar`) that struct-packs
the batch's tids/sids/snos/timestamps as flat arrays, interns keys in a
per-frame string table, and tags values with 1-byte type codes.  The
daemon decodes that blob directly into the batch kernel's columnar
layout without building per-transaction dicts, which is where v2's
throughput win comes from.

Handshake
---------
The server always opens with a v1 ``welcome`` line advertising
``"protocols": [1, 2]`` (or ``[1]`` when v2 is disabled).  A connection
stays in v1 unless the client sends a v2 ``hello`` *frame*; the server
then answers with a v2 ``welcome`` frame and switches its send side to
frames for that connection.  Clients preferring v2 must fall back to v1
when the server only advertises ``[1]``.

Sessions and resume
-------------------
A v2 ``hello`` may additionally carry ``"session_token"`` (a lowercase
hex string previously issued by the daemon, or ``null`` to open a new
session) and optionally ``"resume_from"`` (the client's highest acked
submit sequence number, cross-checked against the daemon's watermark).
The daemon answers with a ``"session"`` object inside the v2
``welcome``::

    {"session": {"token": "…", "acked_seq": N, "resumed": true|false}}

``acked_seq`` is the daemon's per-session watermark: the highest submit
``seq`` it has admitted *in full* for that token.  On reconnect the
client drops every locally buffered batch with ``seq <= acked_seq``
(the batch was ingested; only the ack was lost) and re-submits the
rest with their *original* sequence numbers.  The daemon dedups by
``(session_token, seq)`` — a resubmitted ``seq`` at or below the
watermark is acked again (``"duplicate": true``) without re-entering
the ingest queue, which makes reconnect-and-replay exactly-once.
Tokens are daemon-issued only (an unknown well-formed token opens a
*fresh* session — the daemon that issued it is gone); a malformed
token or a ``resume_from`` ahead of the daemon's watermark is rejected
with an ``error`` reply and no session.  Session state is in-memory
and bounded (:data:`MAX_TRACKED_SESSIONS` least-recently-used entries).

Prefer v1 when debugging (messages are greppable and can be spoken with
``nc``/``telnet``), when producing from tools that only know JSON, or
for interop with pre-v2 daemons; prefer v2 for throughput — bulk
``submit`` traffic is both smaller on the wire and far cheaper to
decode.

Client → server
---------------
============  =====================================================
``hello``     optional greeting: ``{"client": str}``
``submit``    ``{"txns": [txn, ...]}`` or ``{"txn": txn}``; an
              optional ``seq`` requests an ``ack`` once the batch is
              *enqueued* (admission, not checking — verdicts arrive
              via ``subscribe``/``finalize``)
``subscribe`` start pushing ``violation`` messages to this
              connection; ``{"replay": true}`` also replays
              violations reported before the subscription
``stats``     ``{"seq": n}`` → one ``stats`` reply
``drain``     ``{"seq": n}`` → ``drained`` once every transaction
              enqueued so far has been checked
``finalize``  ``{"seq": n}`` → drain, force-finalize pending EXT
              verdicts, reply with a ``result``
``shutdown``  graceful stop: drain, finalize, broadcast the final
              ``result``, reply ``bye``, exit
``ping``      ``{"seq": n}`` → ``pong``
============  =====================================================

Server → client
---------------
============  =====================================================
``welcome``   first message on every connection: protocol version,
              checker kind, isolation level
``ack``       ``{"seq": n, "enqueued": k}``
``violation`` one checked-and-reported violation, pushed live
``stats``     resident/throughput/GC counters (see
              :meth:`repro.service.daemon.CheckerService.stats`)
``drained``   ``{"seq": n, "processed": k}``
``result``    ``{"valid": bool, "summary": str, "violations": [...]}``
``pong``      ``{"seq": n}``
``error``     ``{"message": str, "seq": n?}`` — the connection
              survives; only the offending request is rejected
``bye``       the server is closing this connection
============  =====================================================

Transactions travel in the dict form of ``txn_to_dict``, the history
files' schema; the daemon decodes a v1 ``submit`` with ``columns_from_rows``
(:mod:`repro.histories.serialization`) into the columns a v2 frame carries.
Violations are encoded by :func:`violation_to_dict`.  The value tags exist
for their values: an INT or EXT violation's ``expected``/``actual`` may be
a tuple or ⊥v (an EXT read of a never-written key expects ⊥v), which JSON
cannot represent — :func:`value_to_wire` tags them (``{"$": "bottom"}`` /
``{"$": "tuple", "items": [...]}``; a dict is wrapped as ``{"$": "obj",
"value": {...}}``) and :func:`value_from_wire` restores the originals.
"""

from __future__ import annotations

import json
import re
import secrets
from dataclasses import fields
from typing import Any, Callable, Dict

from repro.core.common import BOTTOM
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

__all__ = [
    "PROTOCOL_VERSION",
    "PROTOCOL_VERSIONS",
    "MAX_TRACKED_SESSIONS",
    "ProtocolError",
    "new_session_token",
    "validate_session_token",
    "encode_message",
    "decode_line",
    "value_to_wire",
    "value_from_wire",
    "violation_to_dict",
    "violation_from_dict",
    "result_to_dict",
    "result_from_dict",
]

PROTOCOL_VERSION = 1

#: Every protocol revision this codebase can speak.  The binary v2 frame
#: codec lives in :mod:`repro.service.framing` (a sibling rather than an
#: import here, so the v1 codec keeps zero framing dependencies).
PROTOCOL_VERSIONS = (1, 2)


class ProtocolError(ValueError):
    """A malformed or out-of-contract wire message."""


# ----------------------------------------------------------------------
# Session tokens (idempotent reconnect/resume)
# ----------------------------------------------------------------------

#: Upper bound on daemon-tracked resume sessions; the oldest-touched
#: session is evicted past this, so a token-churning client cannot grow
#: daemon memory without bound.
MAX_TRACKED_SESSIONS = 1024

#: Token grammar: lowercase hex, 8–64 chars.  Wide enough for 256-bit
#: tokens, tight enough that the daemon can reject a forged or corrupted
#: token from its shape alone.
_SESSION_TOKEN_RE = re.compile(r"^[0-9a-f]{8,64}$")


def new_session_token() -> str:
    """Mint a fresh 128-bit session token (lowercase hex)."""
    return secrets.token_hex(16)


def validate_session_token(token: Any) -> str:
    """Return ``token`` when it matches the wire grammar, else raise.

    Raises :class:`ProtocolError` for anything that is not a lowercase
    hex string of 8–64 characters — the daemon rejects malformed resume
    attempts from the token's shape, before touching its session table.
    """
    if not isinstance(token, str) or not _SESSION_TOKEN_RE.match(token):
        raise ProtocolError(f"malformed session token {token!r}")
    return token


def encode_message(message: Dict[str, Any]) -> bytes:
    """Render one message as an ndjson line (including the newline)."""
    return json.dumps(message, separators=(",", ":"), ensure_ascii=False).encode("utf-8") + b"\n"


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one wire line into a message dict, validating the envelope."""
    try:
        message = json.loads(line)
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"not valid JSON: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError(f"message must be a JSON object, got {type(message).__name__}")
    kind = message.get("type")
    if not isinstance(kind, str):
        raise ProtocolError("message lacks a string 'type' field")
    return message


# ----------------------------------------------------------------------
# Value encoding: ⊥v and tuples survive the JSON round trip
# ----------------------------------------------------------------------

def value_to_wire(value: Any) -> Any:
    if value is BOTTOM:
        return {"$": "bottom"}
    if isinstance(value, tuple):
        return {"$": "tuple", "items": [value_to_wire(item) for item in value]}
    if isinstance(value, dict):
        # Plain JSON-object values must be wrapped too, or the decoder
        # would read them as (unknown) tags — and a value legitimately
        # containing a "$" key would be misinterpreted.
        return {"$": "obj", "value": value}
    return value


def value_from_wire(wire: Any) -> Any:
    if isinstance(wire, dict):
        tag = wire.get("$")
        if tag == "bottom":
            return BOTTOM
        if tag == "tuple":
            return tuple(value_from_wire(item) for item in wire["items"])
        if tag == "obj":
            return wire["value"]
        raise ProtocolError(f"unknown value tag {tag!r}")
    return wire


# ----------------------------------------------------------------------
# Violation encoding
# ----------------------------------------------------------------------

#: Each violation class's ``kind`` on the wire.  A record is ``axiom``,
#: ``tid`` and ``kind``, then the class's own dataclass fields in
#: declaration order; a subclass travels as the nearest class listed.
_KIND_OF_CLASS: Dict[type, str] = {
    SessionViolation: "session",
    IntViolation: "int",
    ExtViolation: "ext",
    ConflictViolation: "conflict",
    TimestampOrderViolation: "ts_order",
    Violation: "violation",
}
_CLASS_OF_KIND = {kind: cls for cls, kind in _KIND_OF_CLASS.items()}
#: Each class's fields past ``axiom`` and ``tid``.
_FIELDS = {cls: [field.name for field in fields(cls)[2:]] for cls in _KIND_OF_CLASS}
#: How a field's value is encoded and decoded when it is not JSON as it is.
_TO_WIRE: Dict[str, Callable[[Any], Any]] = {
    "expected": value_to_wire, "actual": value_to_wire, "conflicting_tids": sorted,
}
_FROM_WIRE: Dict[str, Callable[[Any], Any]] = {
    "expected": value_from_wire, "actual": value_from_wire, "conflicting_tids": frozenset,
}


def _as_is(value: Any) -> Any:
    return value


def violation_to_dict(violation: Violation) -> Dict[str, Any]:
    """Encode one violation record for the wire."""
    cls = next(filter(_KIND_OF_CLASS.__contains__, type(violation).__mro__))
    record = {"axiom": violation.axiom.value, "tid": violation.tid, "kind": _KIND_OF_CLASS[cls]}
    for name in _FIELDS[cls]:
        record[name] = _TO_WIRE.get(name, _as_is)(getattr(violation, name))
    return record


def violation_from_dict(data: Dict[str, Any]) -> Violation:
    """Decode a violation record; inverse of :func:`violation_to_dict`."""
    try:
        axiom = Axiom(data["axiom"])
        tid = data["tid"]
        kind = data.get("kind", "violation")
        cls = _CLASS_OF_KIND.get(kind) if isinstance(kind, str) else None
        if cls is not None:
            return cls(
                axiom=axiom,
                tid=tid,
                **{name: _FROM_WIRE.get(name, _as_is)(data[name]) for name in _FIELDS[cls]},
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed violation record: {exc!r}") from None
    raise ProtocolError(f"unknown violation kind {kind!r}")


# ----------------------------------------------------------------------
# Check results
# ----------------------------------------------------------------------

def result_to_dict(result: CheckResult) -> Dict[str, Any]:
    """Encode a whole check result (report order preserved)."""
    return {
        "valid": result.is_valid,
        "summary": result.summary(),
        "counts": {axiom.value: count for axiom, count in result.counts().items()},
        "violations": [violation_to_dict(v) for v in result.violations],
    }


def result_from_dict(data: Dict[str, Any]) -> CheckResult:
    """Decode a check result; inverse of :func:`result_to_dict`."""
    result = CheckResult()
    try:
        for record in data["violations"]:
            result.add(violation_from_dict(record))
    except (KeyError, TypeError) as exc:
        raise ProtocolError(f"malformed result record: {exc!r}") from None
    return result
