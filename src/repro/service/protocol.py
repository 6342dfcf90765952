"""The checker service's wire protocol: length-prefixed binary frames.

Every message in either direction is one frame
(:mod:`repro.service.framing`)::

    0      1      2      3      4              8
    +------+------+------+------+--------------+----------------+
    | 0xA6 | 0x52 | ver  | kind |  length u32  | payload ...    |
    +------+------+------+------+--------------+----------------+

Control messages (everything below except ``submit``) carry one JSON
object as the frame payload: a ``type`` field plus type-specific fields,
the kind byte naming the same type.  Only ``submit`` is binary — a u32
ack sequence number followed by a columnar pack
(:func:`repro.core.colpack.pack_columnar`) that struct-packs the
batch's tids/sids/snos/timestamps as flat arrays, interns keys in a
per-frame string table, and tags values with 1-byte type codes.  The
daemon decodes that blob directly into the batch kernel's columnar
layout without building per-transaction dicts.

Handshake
---------
The daemon opens every connection with a framed ``welcome`` (protocol
version, checker kind, isolation level); the client may send requests
at once.  A ``hello`` frame is only needed to open or resume a session:
the daemon answers it with a second ``welcome`` that carries
``session``.  A connection whose bytes do not parse as a frame header —
a first byte other than ``0xA6``, say an ndjson line — gets one framed
``error`` and is closed: the stream position is lost, and frames cannot
resync.

Sessions and resume
-------------------
A ``hello`` carries ``"session_token"`` (a lowercase hex string
previously issued by the daemon, or ``null`` to open a new session) and
optionally ``"resume_from"`` (the client's highest acked submit sequence
number, cross-checked against the daemon's watermark).  The daemon
answers with a ``"session"`` object inside the ``welcome``::

    {"session": {"token": "…", "acked_seq": N, "resumed": true|false}}

``acked_seq`` is the daemon's per-session watermark: the highest submit
``seq`` it has admitted *in full* for that token.  On reconnect the
client drops every locally buffered batch with ``seq <= acked_seq``
(the batch was ingested; only the ack was lost) and re-submits the
rest with their *original* sequence numbers.  The daemon dedups by
``(session_token, seq)`` — a resubmitted ``seq`` at or below the
watermark is acked again (``"duplicate": true``) without re-entering
the ingest queue, which makes reconnect-and-replay exactly-once.
Tokens are daemon-issued only: 32 lowercase hex characters, 16 bytes
from the operating system's random source (``os.urandom``, which
``secrets`` also draws from; calling it directly keeps ``hashlib`` and
OpenSSL out of the daemon process).  An unknown well-formed token opens a
*fresh* session (the daemon that issued it is gone); a malformed
token or a ``resume_from`` ahead of the daemon's watermark is rejected
with an ``error`` reply and no session.  Session state is in-memory
and bounded (:data:`MAX_TRACKED_SESSIONS` least-recently-used entries).

Client → server
---------------
============  =====================================================
``hello``     open or resume a session: ``{"session_token": str |
              null, "resume_from": n?}``
``submit``    binary: a u32 ``seq`` and one columnar batch; a nonzero
              ``seq`` requests an ``ack`` once the drain task *takes*
              the batch from the ingest queue — before it is checked,
              so the ack precedes the violations it pushes (verdicts
              arrive via ``subscribe``/``finalize``); a ``duplicate``
              ack or a refusal is sent at once
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
              checker kind, isolation level; also the reply to a
              ``hello``, then with ``session``
``ack``       ``{"seq": n, "enqueued": k}``
``violation`` one checked-and-reported violation, pushed live
``stats``     resident/throughput/GC counters (see
              :meth:`repro.service.daemon.CheckerService.stats`)
``drained``   ``{"seq": n, "processed": k}``
``result``    ``{"valid": bool, "summary": str, "violations": [...]}``
``pong``      ``{"seq": n}``
``error``     ``{"message": str, "seq": n?}`` — the connection
              survives; only the offending request is rejected
              (after a frame header that does not parse, the
              connection closes)
``bye``       the server is closing this connection
============  =====================================================

Violations are encoded by :func:`violation_to_dict`.  The value tags exist
for their values: an INT or EXT violation's ``expected``/``actual`` may be
a tuple or ⊥v (an EXT read of a never-written key expects ⊥v), which JSON
cannot represent — :func:`value_to_wire` tags them (``{"$": "bottom"}`` /
``{"$": "tuple", "items": [...]}``; a dict is wrapped as ``{"$": "obj",
"value": {...}}``) and :func:`value_from_wire` restores the originals.
"""

from __future__ import annotations

import json
import os
import re
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

#: The one wire protocol: binary frames (:mod:`repro.service.framing`).
PROTOCOL_VERSION = 2



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
    """Mint a fresh 128-bit session token: ``os.urandom(16)`` as lowercase hex."""
    return os.urandom(16).hex()


def validate_session_token(token: Any) -> str:
    """Return ``token`` when it matches the wire grammar, else raise.

    Raises :class:`ProtocolError` for anything that is not a lowercase
    hex string of 8–64 characters — the daemon rejects malformed resume
    attempts from the token's shape, before touching its session table.
    """
    if not isinstance(token, str) or not _SESSION_TOKEN_RE.match(token):
        raise ProtocolError(f"malformed session token {token!r}")
    return token


# Kept: the benchmark ladder imports these two at module top for its ndjson rung.
def encode_message(message: Dict[str, Any]) -> bytes:
    """Render one message as an ndjson line (including the newline)."""
    return json.dumps(message, separators=(",", ":"), ensure_ascii=False).encode("utf-8") + b"\n"


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one ndjson line into a message dict, validating the envelope."""
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
#: ``tid`` and ``kind``, then the class's own fields in ``_fields``
#: order; a subclass travels as the nearest class listed.
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
_FIELDS = {cls: cls._fields[2:] for cls in _KIND_OF_CLASS}
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
