"""Blocking client for the checker daemon.

:class:`CheckerClient` speaks the wire protocol of
:mod:`repro.service.protocol` over TCP or a unix socket using nothing
but the standard library — the library a workload driver, a CDC tailer,
or a test harness embeds to stream committed transactions into a
running daemon and read verdicts back.

Every message crosses the wire as one binary frame; a submit batch is
one vectored columnar frame — no per-transaction JSON objects are built.
One windowed loop sends acked submit batches, waits for their acks and
tracks them for resume: :meth:`submit_pipelined` streams through it,
:meth:`submit_many` is that path with one batch and a window of one,
and a resume replays the unacked backlog through it.  The daemon acks a
submit when its drain task takes the batch, so the window is credit:
it bounds how much of this producer's stream waits unchecked in the
daemon's queue.

The client is synchronous by design (producers in this repo are
synchronous); asynchrony lives on the server side.  Pushed ``violation``
messages can arrive interleaved with request replies on a subscribed
connection, so every receive path funnels through :meth:`_read_message`,
which stashes pushes in :attr:`pushed` until :meth:`take_violations` /
:meth:`wait_for_violations` collects them.

One client instance belongs to one thread; concurrent producers open
one client each (connections are cheap, and per-connection ordering is
what carries session order over the wire).

With ``auto_resume=True`` the client opens a daemon-side resume session
with a ``hello`` at connect and survives connection cuts transparently:
operations that hit a dead socket reconnect with capped exponential
backoff + jitter, present the session token, and re-submit only batches
the daemon's acked-seq watermark has not covered — exactly-once ingest
even when the cut swallowed an ack (see :mod:`repro.service.protocol`,
*Sessions and resume*).
"""

from __future__ import annotations

import random
import socket
import time
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Container, Dict, List, Optional, Set, Tuple, TypeVar, Union

from repro.core.violations import CheckResult, Violation
from repro.histories.model import Transaction
from repro.service.framing import (
    CLIENT_KIND_OF_TYPE,
    HEADER_SIZE,
    decode_frame_header,
    decode_frame_payload,
    encode_hello_frame,
    encode_json_frame,
    encode_submit_frame,
)
from repro.service.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    result_from_dict,
    violation_from_dict,
)

__all__ = ["CheckerClient", "ServiceError", "http_get_json", "http_get_text"]


def http_get_text(
    host: str, port: int, path: str, timeout: float = 10.0
) -> Tuple[int, str]:
    """``GET`` a path from the daemon's HTTP sidecar: ``(status, body)``.

    Stdlib-only (``http.client``) so CLI tools and tests can hit
    ``/metrics`` and ``/health`` without depending on an HTTP library.
    Non-2xx statuses are returned, not raised — ``/health`` uses 503 as
    a meaningful answer.
    """
    import http.client

    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        body = response.read().decode("utf-8", "replace")
        return response.status, body
    finally:
        conn.close()


def http_get_json(
    host: str, port: int, path: str, timeout: float = 10.0
) -> Tuple[int, Any]:
    """:func:`http_get_text` with the body parsed as JSON."""
    import json

    status, body = http_get_text(host, port, path, timeout=timeout)
    return status, json.loads(body)


_T = TypeVar("_T")


class ServiceError(RuntimeError):
    """The daemon rejected a request (an ``error`` reply) — or, for
    connection retries, the retry budget ran out.  In the latter case
    :attr:`attempts` carries how many connection attempts were made;
    otherwise it is ``None``.
    """

    def __init__(self, message: str, *, attempts: Optional[int] = None) -> None:
        super().__init__(message)
        self.attempts = attempts


class CheckerClient:
    """One connection to a running checker daemon.

    Parameters
    ----------
    host, port:
        TCP endpoint of the daemon (ignored when ``unix_path`` is given).
    unix_path:
        Path of the daemon's unix socket.
    timeout:
        Socket timeout (seconds) applied to every blocking operation.
    protocol:
        The wire protocol; ``2`` (binary frames) is the only one, and
        any other value raises :class:`ValueError`.
    auto_resume:
        Opt into idempotent reconnect/resume.  A hello at connect opens
        a daemon-side session; on a connection cut mid-operation the
        client transparently reconnects (capped exponential backoff
        with jitter, up to ``max_resume_attempts`` cuts per operation),
        presents its session token, and re-submits only batches the
        daemon has not acked — exactly-once ingest even when the cut
        swallowed an ack (the daemon dedups by ``(session, seq)``).
    reconnect_timeout:
        Seconds each transparent reconnect keeps retrying a refused
        connection (the ``retry_for`` of the internal ``connect``) —
        the window a restarting daemon has to come back.
    max_resume_attempts:
        Connection cuts tolerated within one logical operation before
        the underlying ``OSError`` propagates.
    """

    #: Backoff schedule for connection retries: capped exponential with
    #: full jitter (each sleep is uniform in [delay/2, delay]).
    _BACKOFF_BASE = 0.02
    _BACKOFF_CAP = 1.0
    #: Frames in flight while a resume replays the unacked backlog.
    _RESUME_WINDOW = 8

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        unix_path: Optional[Union[str, Path]] = None,
        timeout: float = 30.0,
        protocol: int = PROTOCOL_VERSION,
        auto_resume: bool = False,
        reconnect_timeout: float = 10.0,
        max_resume_attempts: int = 8,
    ) -> None:
        # Still a parameter: the benchmark ladder passes protocol=2.
        if protocol != PROTOCOL_VERSION:
            raise ValueError(f"protocol must be {PROTOCOL_VERSION}, got {protocol!r}")
        self.host = host
        self.port = port
        self.unix_path = str(unix_path) if unix_path is not None else None
        self.timeout = timeout
        self.auto_resume = auto_resume
        self.reconnect_timeout = reconnect_timeout
        self.max_resume_attempts = max_resume_attempts
        self._sock: Optional[socket.socket] = None
        self._buffer = b""
        self._seq = 0
        self.welcome: Optional[Dict[str, Any]] = None
        self.subscribed = False
        #: Violations pushed by the daemon, in arrival order.
        self.pushed: List[Violation] = []
        #: Final result captured when the daemon says goodbye mid-read.
        self.final_result: Optional[CheckResult] = None
        #: Resume session token adopted from the daemon's welcome (None
        #: until the first auto_resume connect).
        self.session_token: Optional[str] = None
        #: Whether the last connect resumed an existing daemon session.
        self.session_resumed = False
        #: Acked-stream submit batches not yet acked, by sequence number,
        #: in send order — the replay backlog.
        self._unacked: "OrderedDict[int, List[Transaction]]" = OrderedDict()
        #: Highest submit seq the daemon has acked on this session.
        self._acked_seq = 0
        #: Counters for reports and tests.
        self.reconnects = 0
        self.connect_attempts = 0
        self.replayed_batches = 0
        self.recovered_acks = 0
        #: Chaos hook: application frame numbers after which the socket
        #: is severed right after the send (see :meth:`_sendall`).
        self.chaos_kill_frames: Set[int] = set()
        self.frames_sent = 0
        self._rng = random.Random()

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------

    def connect(self, *, retry_for: float = 0.0) -> Dict[str, Any]:
        """Connect and read the ``welcome``; returns the welcome message.

        ``retry_for`` keeps retrying a refused connection for that many
        seconds — the normal way to follow a daemon you just booted.
        Retries back off exponentially (capped, with jitter) rather than
        hammering at a fixed interval.  When the budget runs out after
        more than one attempt, the failure is raised as
        :class:`ServiceError` carrying ``.attempts``; a plain no-retry
        call (``retry_for=0``) raises the original ``OSError``
        unchanged.
        """
        deadline = time.monotonic() + retry_for
        delay = self._BACKOFF_BASE
        attempts = 0
        while True:
            attempts += 1
            try:
                self._open_socket()
                break
            except OSError as exc:
                self._teardown()
                now = time.monotonic()
                if now >= deadline:
                    self.connect_attempts = attempts
                    if attempts == 1:
                        raise
                    raise ServiceError(
                        f"connect to {self._endpoint()} failed after "
                        f"{attempts} attempts over {retry_for:.1f}s: {exc}",
                        attempts=attempts,
                    ) from exc
                time.sleep(
                    min(self._rng.uniform(delay / 2, delay), max(deadline - now, 0.0))
                )
                delay = min(delay * 2, self._BACKOFF_CAP)
        self.connect_attempts = attempts
        self.welcome = self._read_welcome()
        if self.auto_resume:
            # The hello opens (or resumes) a daemon-side session; the
            # daemon's second welcome carries it.
            assert self._sock is not None
            self._sock.sendall(
                encode_hello_frame(
                    session=True,
                    session_token=self.session_token,
                    resume_from=self._acked_seq if self.session_token is not None else None,
                )
            )
            self.welcome = self._read_welcome()
            self._adopt_session(self.welcome.get("session"))
        return self.welcome

    def _read_welcome(self) -> Dict[str, Any]:
        welcome = self._read_message()
        if welcome.get("type") != "welcome":
            raise ProtocolError(f"expected welcome, got {welcome.get('type')!r}")
        return welcome

    def _endpoint(self) -> str:
        if self.unix_path is not None:
            return self.unix_path
        return f"{self.host}:{self.port}"

    def _adopt_session(self, session: Any) -> None:
        """Bind to the session in a welcome, then settle the backlog.

        Batches at or below the daemon's acked-seq watermark were
        admitted before the cut (only the ack was lost, or had not been
        sent yet) and are dropped from the backlog; the rest are
        re-submitted with their original sequence numbers through the
        windowed loop of :meth:`submit_pipelined`, so a daemon that
        *did* see them dedups.
        """
        if not isinstance(session, dict) or not session.get("token"):
            raise ServiceError("daemon did not grant a resume session")
        self.session_token = session["token"]
        self.session_resumed = bool(session.get("resumed"))
        daemon_acked = int(session.get("acked_seq", 0))
        self._acked_seq = max(self._acked_seq, daemon_acked)
        for seq in [s for s in self._unacked if s <= daemon_acked]:
            del self._unacked[seq]
            self.recovered_acks += 1
        backlog = list(self._unacked.items())
        assert self._sock is not None
        try:
            # Handshake traffic: the raw socket send, which the chaos
            # kill hook does not count, so a reconnect makes progress.
            self._send_acked(backlog, self._RESUME_WINDOW, self._sock.sendall)
        finally:
            self.replayed_batches += len(backlog) - len(self._unacked)
        if self.subscribed:
            # Replays were already absorbed (or lost with the daemon);
            # re-arm the push stream without duplicating history.
            self._request({"type": "subscribe", "replay": False}, expect="subscribed")

    def _open_socket(self) -> None:
        if self.unix_path is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self.timeout)
            sock.connect(self.unix_path)
        else:
            sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._buffer = b""

    def close(self) -> None:
        self._teardown()

    def kill(self) -> None:
        """Chaos hook: sever the connection *without* clearing resume
        state — the next operation on an ``auto_resume`` client trips
        over the dead socket and reconnects transparently."""
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass

    def _reconnect(self) -> None:
        self.reconnects += 1
        self._teardown()
        self.connect(retry_for=self.reconnect_timeout)

    def _with_resume(self, op: Callable[[], _T]) -> _T:
        """Run one wire operation, transparently reconnecting on cuts.

        Without ``auto_resume`` this is a plain call.  With it, any
        ``OSError`` (reset, broken pipe, closed socket, recv timeout)
        triggers reconnect + session resume and one retry of the
        operation, up to ``max_resume_attempts`` cuts.  Daemon-level
        rejections (:class:`ServiceError`, :class:`ProtocolError`)
        never retry — resubmitting a rejected request is not resumption.
        """
        if not self.auto_resume:
            return op()
        cuts = 0
        reconnect = self._sock is None
        while True:
            try:
                if reconnect:
                    self._reconnect()
                    reconnect = False
                return op()
            except socket.timeout:
                # A deadline expiring is an answer, not a cut.
                raise
            except OSError:
                cuts += 1
                if cuts > self.max_resume_attempts:
                    raise
                reconnect = True

    def _teardown(self) -> None:
        self._buffer = b""
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "CheckerClient":
        if self._sock is None:
            self.connect()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------

    def submit_many(self, txns: List[Transaction], *, ack: bool = True) -> None:
        """Submit a batch of committed transactions, in order, as one frame.

        With ``ack=True`` (default) the call returns once the daemon's
        drain task took the whole batch from its ingest queue; ``ack=False``
        streams fire-and-forget — fastest, with admission control left
        to TCP backpressure.  An empty batch sends nothing.  This is
        :meth:`submit_pipelined` with one batch and a window of one.
        """
        self.submit_pipelined(txns, batch_size=max(1, len(txns)), window=1, ack=ack)

    def submit_pipelined(
        self,
        txns: List[Transaction],
        *,
        batch_size: int = 500,
        window: int = 8,
        ack: bool = True,
    ) -> int:
        """Submit many transactions as a pipelined stream of batches.

        Splits ``txns`` into batches of ``batch_size`` and sends each
        frame as soon as it is encoded while fewer than ``window`` are
        unacked; otherwise it first waits for an ack.  The daemon acks a
        frame when its drain task takes it, so at most ``window`` of
        this stream's frames wait in the daemon's queue, and the next
        one is already there when the drain takes the last.  An
        ``error`` for any frame in flight raises :class:`ServiceError`.
        ``ack=False`` sends fire-and-forget, ``window`` frames per
        ``sendall``, with admission left to TCP backpressure.

        Returns the number of batches sent.  With ``auto_resume`` the
        whole stream is covered by the resume protocol: every batch is
        tracked until acked, and a connection cut mid-stream replays
        only batches the daemon's watermark has not covered.
        """
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        batches = [list(txns[lo : lo + batch_size]) for lo in range(0, len(txns), batch_size)]
        if not ack:
            # Fire-and-forget: no acks to window, just coalesce sends.
            out: List[bytes] = []
            for batch in batches:
                out.append(encode_submit_frame(batch, 0))
                if len(out) >= window:
                    self._sendall(b"".join(out))
                    out.clear()
            if out:
                self._sendall(b"".join(out))
            return len(batches)
        # Sequence numbers are assigned once, before any (re)try: a
        # resume replay identifies batches by their original seq.
        plan: List[Tuple[int, List[Transaction]]] = []
        for batch in batches:
            self._seq += 1
            plan.append((self._seq, batch))
        if self.auto_resume:
            for seq, batch in plan:
                self._unacked[seq] = batch

        def op() -> None:
            todo = [
                (seq, batch)
                for seq, batch in plan
                # Not settled by a resume replay already.
                if seq > self._acked_seq or seq in self._unacked
            ]
            self._send_acked(todo, window, self._sendall)

        self._with_resume(op)
        return len(batches)

    def _send_acked(
        self,
        plan: List[Tuple[int, List[Transaction]]],
        window: int,
        send: Callable[[bytes], None],
    ) -> None:
        """The windowed loop: send ``plan``'s ``(seq, batch)`` frames
        with at most ``window`` unacked, then wait for the rest.

        Acks are taken in whatever order they come — a ``duplicate`` ack
        leaves the daemon at once, ahead of acks still queued — and each
        one settles its batch in the resume backlog.
        """
        in_flight: Dict[int, int] = {}
        for seq, batch in plan:
            frame = encode_submit_frame(batch, seq)
            while len(in_flight) >= window:
                self._settle_ack(in_flight)
            send(frame)
            in_flight[seq] = len(batch)
        while in_flight:
            self._settle_ack(in_flight)

    def _settle_ack(self, in_flight: Dict[int, int]) -> None:
        reply = self._await_reply("ack", in_flight)
        seq = reply["seq"]
        n = in_flight.pop(seq)
        if reply.get("enqueued") != n:
            raise ServiceError(
                f"submit seq {seq}: daemon enqueued {reply.get('enqueued')} of {n} transactions"
            )
        if self.auto_resume:
            self._unacked.pop(seq, None)
            self._acked_seq = max(self._acked_seq, seq)

    def subscribe(self, *, replay: bool = False) -> None:
        """Start receiving live violation pushes on this connection."""
        self._with_resume(
            lambda: self._request({"type": "subscribe", "replay": replay}, expect="subscribed")
        )
        self.subscribed = True

    def ping(self) -> None:
        self._with_resume(lambda: self._request({"type": "ping"}, expect="pong"))

    def stats(self, *, include_bytes: bool = True) -> Dict[str, Any]:
        """Fetch the daemon's resident/throughput/GC counters.

        ``include_bytes=False`` asks the daemon to skip the
        ``estimated_bytes`` deep-sizeof walk — the cheap mode for
        polling a daemon with a large resident set.
        """
        return self._with_resume(
            lambda: self._request({"type": "stats", "bytes": include_bytes}, expect="stats")
        )["stats"]

    def drain(self, *, wait_timeout: Optional[float] = None) -> int:
        """Block until everything submitted so far is checked.

        Unlike plain requests, draining waits for the checker to catch
        up — unbounded by default rather than capped at the socket
        timeout; pass ``wait_timeout`` to bound the wait.
        """

        def op() -> int:
            with self._deadline(wait_timeout):
                return self._request({"type": "drain"}, expect="drained")["processed"]

        return self._with_resume(op)

    def finalize(self, *, wait_timeout: Optional[float] = None) -> CheckResult:
        """Drain, force-finalize pending EXT verdicts, return the result.

        Waits for the daemon to catch up (see :meth:`drain`).
        """

        def op() -> Dict[str, Any]:
            with self._deadline(wait_timeout):
                return self._request({"type": "finalize"}, expect="result")

        return result_from_dict(self._with_resume(op))

    def shutdown(self, *, wait_timeout: Optional[float] = None) -> CheckResult:
        """Ask the daemon to drain, finalize, and exit; returns the result.

        Waits for the daemon to catch up (see :meth:`drain`).
        """
        with self._deadline(wait_timeout):
            self._send({"type": "shutdown"})
            reply = self._read_until("result")
        self.final_result = result_from_dict(reply)
        return self.final_result

    @contextmanager
    def _deadline(self, timeout: Optional[float]):
        """Temporarily replace the per-operation socket timeout."""
        assert self._sock is not None, "not connected"
        self._sock.settimeout(timeout)
        try:
            yield
        finally:
            if self._sock is not None:
                self._sock.settimeout(self.timeout)

    # ------------------------------------------------------------------
    # Pushed verdicts
    # ------------------------------------------------------------------

    def take_violations(self) -> List[Violation]:
        """Drain violations already received (does not touch the socket)."""
        taken, self.pushed = self.pushed, []
        return taken

    def wait_for_violations(self, count: int = 1, *, timeout: float = 5.0) -> List[Violation]:
        """Block until at least ``count`` pushed violations arrived.

        Returns everything received (may exceed ``count``); raises
        :class:`TimeoutError` if the daemon stays quiet too long.
        """
        assert self._sock is not None, "not connected"
        deadline = time.monotonic() + timeout
        while len(self.pushed) < count:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"got {len(self.pushed)}/{count} violations within {timeout}s"
                )
            self._sock.settimeout(remaining)
            try:
                self._read_message()
            except socket.timeout:
                # recv() timed out cleanly: _buffer still holds any
                # partial frame, so framing survives and we re-check the
                # deadline.
                continue
            finally:
                self._sock.settimeout(self.timeout)
        return self.take_violations()

    # ------------------------------------------------------------------
    # Wire plumbing
    # ------------------------------------------------------------------

    def _send(self, message: Dict[str, Any]) -> None:
        """Send one control message (a submit goes by :meth:`submit_pipelined`)."""
        self._sendall(encode_json_frame(CLIENT_KIND_OF_TYPE[message["type"]], message))

    def _sendall(self, data: bytes) -> None:
        """Send one application frame, honoring the chaos kill hook.

        ``chaos_kill_frames`` severs the socket *right after* the
        matching frame left — the daemon may have processed (even acked)
        it while the client never reads the reply, which is exactly the
        ambiguity the resume watermark resolves.  Handshake traffic in
        ``connect`` bypasses this counter so a reconnect always makes
        progress.
        """
        assert self._sock is not None, "not connected"
        self._sock.sendall(data)
        self.frames_sent += 1
        if self.frames_sent in self.chaos_kill_frames:
            try:
                self._sock.close()
            except OSError:
                pass

    def _request(self, message: Dict[str, Any], *, expect: str) -> Dict[str, Any]:
        self._seq += 1
        seq = self._seq
        message = dict(message, seq=seq)
        self._send(message)
        return self._await_reply(expect, (seq,))

    def _await_reply(self, expect: str, seqs: Container[int]) -> Dict[str, Any]:
        """The next ``expect`` reply whose ``seq`` is in ``seqs``; an
        ``error`` for one of them (or for no request) raises."""
        while True:
            reply = self._read_message()
            kind, seq = reply.get("type"), reply.get("seq")
            if kind == "error" and (seq is None or seq in seqs):
                raise ServiceError(reply.get("message", "unspecified error"))
            if kind == expect and seq in seqs:
                return reply
            # Anything else on a subscribed connection is a push already
            # absorbed by _read_message; unsolicited replies are dropped.

    def _read_until(self, kind: str) -> Dict[str, Any]:
        while True:
            reply = self._read_message()
            if reply.get("type") == kind:
                return reply

    def _read_message(self) -> Dict[str, Any]:
        """Read one message, absorbing violation pushes along the way.

        Also captures any ``result`` into :attr:`final_result` — a
        daemon-initiated shutdown broadcasts the final verdict without a
        ``seq``, and a client blocked in an unrelated request must not
        lose it when the socket then closes.
        """
        # Fill before consuming: a timeout mid-frame must leave the
        # buffer at a message boundary for the retry.
        self._fill(HEADER_SIZE)
        kind_byte, length = decode_frame_header(self._buffer[:HEADER_SIZE])
        self._fill(HEADER_SIZE + length)
        # Decode straight out of the receive buffer: a memoryview slice
        # instead of a bytes copy of the payload (the columnar decoder
        # reads it in place).
        received = self._buffer
        self._buffer = received[HEADER_SIZE + length :]
        with memoryview(received) as whole:
            message = decode_frame_payload(kind_byte, whole[HEADER_SIZE : HEADER_SIZE + length])
        kind = message.get("type")
        if kind == "violation":
            self.pushed.append(violation_from_dict(message["violation"]))
        elif kind == "result":
            self.final_result = result_from_dict(message)
        return message

    def _fill(self, n: int) -> None:
        """Grow the receive buffer to at least ``n`` bytes (no consume).

        A hand-rolled buffer instead of ``socket.makefile``: a timeout
        mid-``recv`` must leave already-received bytes intact (buffered
        file objects lose them), and pushed frames that arrived in one
        packet must be consumable without touching the socket again.
        """
        assert self._sock is not None, "not connected"
        while len(self._buffer) < n:
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ConnectionError("daemon closed the connection")
            self._buffer += chunk
