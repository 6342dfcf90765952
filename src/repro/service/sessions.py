"""Resume sessions: the daemon side of exactly-once ingest.

:class:`SessionTable` holds what a reconnecting producer resumes against
— sessions by token (LRU-bounded) and by attached connection, the
``(session, seq)`` dedup and watermark that make reconnect-and-replay
exactly-once, and the resume stamps behind the ``resume_storm`` health
component.  The wire contract (token grammar, ``resume_from``, the
``session`` object of the ``welcome``) is in
:mod:`repro.service.protocol`.  Event-loop thread only.
"""

from __future__ import annotations

import time
from collections import OrderedDict, deque
from typing import Any, Deque, Dict, Hashable, Optional, Tuple

from repro.service.protocol import (
    MAX_TRACKED_SESSIONS,
    ProtocolError,
    new_session_token,
    validate_session_token,
)

__all__ = ["RESUME_STORM_THRESHOLD", "RESUME_STORM_WINDOW_S", "SessionTable"]

#: Sliding window (seconds) over which session resumes are counted for
#: the ``resume_storm`` health component.
RESUME_STORM_WINDOW_S = 10.0

#: Session resumes inside one window at which ``/health`` flips the
#: ``resume_storm`` component unhealthy — reconnect churn at this rate
#: means clients are flapping (a dying daemon peer, a broken network
#: path, or a retry loop without backoff), and verdict latency
#: guarantees no longer hold.
RESUME_STORM_THRESHOLD = 30


class _WireSession:
    """Per-session resume state.

    One session outlives its connections: a client that reconnects with
    the session's token resumes against the same watermark.
    ``acked_seq`` is the highest submit ``seq`` admitted *in full* —
    client submit sequence numbers are strictly increasing within a
    session, so any resubmission at or below the watermark has already
    been ingested and is acked again without touching the queue.
    """

    __slots__ = ("token", "acked_seq")

    def __init__(self, token: str) -> None:
        self.token = token
        self.acked_seq = 0


class SessionTable:
    """Sessions by token (LRU-bounded) and by attached connection."""

    def __init__(self) -> None:
        #: Least-recently-touched first; bounded at MAX_TRACKED_SESSIONS
        #: so token churn cannot grow daemon memory.
        self._sessions: "OrderedDict[str, _WireSession]" = OrderedDict()
        #: Connection → session, for connections whose hello opened or
        #: resumed one.
        self._attached: Dict[Hashable, _WireSession] = {}
        #: Monotonic stamps of recent resumes (the storm window).
        self._resume_stamps: Deque[float] = deque(maxlen=4096)
        self.issued = 0
        self.resumes = 0
        self.deduped_txns = 0
        self.rejected = 0

    def attach(self, conn: Hashable, hello: Dict[str, Any]) -> Dict[str, Any]:
        """Open or resume the session a hello asks for; returns the
        ``session`` object of the welcome.

        Raises :class:`ProtocolError` (counted as rejected, no session
        attached) for a malformed token, a malformed ``resume_from``, or
        a resume watermark ahead of the daemon's own — the client claims
        acks this daemon never sent, and honouring it could
        double-ingest.  An unknown *well-formed* token opens a fresh
        session under a newly minted token: the daemon that issued the
        old token is gone (restart), and adopting a client-supplied
        token would let one producer squat another's session.
        """
        try:
            session, resumed = self._resolve(hello)
        except ProtocolError:
            self.rejected += 1
            raise
        self._attached[conn] = session
        return {"token": session.token, "acked_seq": session.acked_seq, "resumed": resumed}

    def _resolve(self, hello: Dict[str, Any]) -> Tuple[_WireSession, bool]:
        token = hello.get("session_token")
        resume_from = hello.get("resume_from")
        if resume_from is not None and (
            isinstance(resume_from, bool)
            or not isinstance(resume_from, int)
            or resume_from < 0
        ):
            raise ProtocolError(f"malformed resume_from {resume_from!r}")
        session: Optional[_WireSession] = None
        if token is not None:
            validate_session_token(token)
            session = self._sessions.get(token)
        if session is not None:
            if resume_from is not None and resume_from > session.acked_seq:
                raise ProtocolError(
                    f"resume_from {resume_from} is ahead of the daemon's "
                    f"acked watermark {session.acked_seq}"
                )
            self._sessions.move_to_end(token)
            self.resumes += 1
            self._resume_stamps.append(time.monotonic())
            return session, True
        session = _WireSession(new_session_token())
        self._sessions[session.token] = session
        self.issued += 1
        while len(self._sessions) > MAX_TRACKED_SESSIONS:
            self._sessions.popitem(last=False)
        return session, False

    def detach(self, conn: Hashable) -> None:
        """Forget a closed connection; its session stays resumable."""
        self._attached.pop(conn, None)

    def is_duplicate(self, conn: Hashable, seq: Optional[int], n_txns: int) -> bool:
        """True when this submit was already admitted for the session.

        A resubmitted ``seq`` at or below the session watermark was
        ingested on a previous connection (only its ack was lost); the
        caller acks it again without touching the queue.
        """
        session = self._attached.get(conn)
        if session is None or seq is None or seq > session.acked_seq:
            return False
        self.deduped_txns += n_txns
        return True

    def advance(self, conn: Hashable, seq: Optional[int]) -> None:
        """Record a fully admitted submit in the session watermark."""
        session = self._attached.get(conn)
        if session is not None and seq is not None and seq > session.acked_seq:
            session.acked_seq = seq

    def recent_resumes(self, now: float) -> int:
        """Session resumes inside the sliding resume-storm window."""
        cutoff = now - RESUME_STORM_WINDOW_S
        return sum(1 for stamp in self._resume_stamps if stamp >= cutoff)

    def snapshot(self) -> Dict[str, int]:
        """The ``stats()["sessions"]`` object."""
        return {
            "tracked": len(self._sessions),
            "attached": len(self._attached),
            "issued": self.issued,
            "resumes": self.resumes,
            "recent_resumes": self.recent_resumes(time.monotonic()),
            "deduped_txns": self.deduped_txns,
            "rejected": self.rejected,
        }
