"""Fuzzing the resume handshake: the daemon survives hostile hellos.

Session resume adds client-supplied state to the handshake — a token
and a watermark — which is exactly where a confused (or malicious)
client can hurt a daemon that trusts it: a forged watermark could
double-ingest, a crash on a malformed token is a denial of service.
These tests drive raw sockets at the daemon: malformed tokens, stale
watermarks, truncated frames, seeded byte flips over a valid resume
hello, and token reuse across connections.  The invariant is always the
same — every input yields either a clean resume or a framed ``error``
(:class:`ProtocolError` surfaced to the client), the daemon never dies,
and nothing is ever ingested twice.
"""

from __future__ import annotations

import random
import socket

import pytest

from repro.histories.model import Operation, OpKind, Transaction
from repro.service import CheckerClient, ServiceConfig, ServiceThread
from repro.service.framing import (
    HEADER_SIZE,
    K_ACK,
    K_ERROR,
    K_WELCOME,
    decode_frame_header,
    decode_frame_payload,
    encode_hello_frame,
    encode_submit_frame,
)

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


@pytest.fixture
def daemon():
    handle = ServiceThread(ServiceConfig(port=0, timeout=float("inf"))).start()
    yield handle
    handle.stop()


class RawConn:
    """A raw wire connection: bytes in, decoded frames out."""

    def __init__(self, handle: ServiceThread, timeout: float = 5.0) -> None:
        host, port = handle.tcp_address
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.file = self.sock.makefile("rb")
        kind, self.greeting = self.read_frame()
        assert kind == K_WELCOME

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def read_frame(self):
        """One decoded ``(kind, message)`` — or None on EOF/timeout."""
        try:
            header = self.file.read(HEADER_SIZE)
        except (socket.timeout, OSError):
            return None
        if len(header) < HEADER_SIZE:
            return None
        kind, length = decode_frame_header(header)
        payload = self.file.read(length)
        return kind, decode_frame_payload(kind, payload)

    def close(self) -> None:
        try:
            self.file.close()
        finally:
            try:
                self.sock.close()
            except OSError:
                pass


def make_txns(n: int = 3):
    return [
        Transaction(
            tid=index + 1,
            sid=0,
            sno=index + 1,
            ops=(Operation(OpKind.WRITE, "x", index),),
            start_ts=2 * index + 1,
            commit_ts=2 * index + 2,
        )
        for index in range(n)
    ]


def daemon_stats(handle: ServiceThread) -> dict:
    client = CheckerClient(*handle.tcp_address)
    client.connect()
    with client:
        return client.stats(include_bytes=False)


class TestResumeFuzz:
    def test_malformed_token_is_rejected_not_fatal(self, daemon):
        conn = RawConn(daemon)
        conn.send(encode_hello_frame(session=True, session_token="NOT hex!!"))
        kind, message = conn.read_frame()
        assert kind == K_ERROR
        # The connection survived the rejection: a clean hello on the
        # very same socket still gets a session.
        conn.send(encode_hello_frame(session=True))
        kind, message = conn.read_frame()
        assert kind == K_WELCOME
        assert message["session"]["resumed"] is False
        conn.close()
        assert daemon_stats(daemon)["sessions"]["rejected"] >= 1

    def test_stale_watermark_is_rejected(self, daemon):
        host, port = daemon.tcp_address
        client = CheckerClient(host, port, auto_resume=True)
        client.connect()
        with client:
            client.submit_many(make_txns())
            token = client.session_token
        # Claim acks the daemon never sent: honouring resume_from=99
        # would let the client skip re-sending data the daemon lost.
        conn = RawConn(daemon)
        conn.send(
            encode_hello_frame(session=True, session_token=token, resume_from=99)
        )
        kind, message = conn.read_frame()
        assert kind == K_ERROR
        assert "watermark" in message["message"]
        conn.close()
        stats = daemon_stats(daemon)
        assert stats["sessions"]["rejected"] >= 1
        assert stats["received"] == 3

    @pytest.mark.parametrize("resume_from", [True, -1, "zero", 1.5])
    def test_malformed_watermark_types(self, daemon, resume_from):
        conn = RawConn(daemon)
        message = {
            "type": "hello",
            "client": "fuzz",
            "session_token": None,
            "resume_from": resume_from,
        }
        from repro.service.framing import K_HELLO, encode_json_frame

        conn.send(encode_json_frame(K_HELLO, message))
        kind, _ = conn.read_frame()
        assert kind == K_ERROR
        conn.close()

    def test_truncated_hello_frame(self, daemon):
        frame = encode_hello_frame(session=True)
        for cut in (1, 4, HEADER_SIZE, len(frame) - 3):
            conn = RawConn(daemon)
            conn.send(frame[:cut])
            conn.close()  # daemon sees a short read and drops the conn
        # Still alive and serving.
        assert daemon_stats(daemon)["received"] == 0

    def test_seeded_byte_flips_never_kill_the_daemon(self, daemon):
        rng = random.Random(0xF42)
        pristine = encode_hello_frame(
            session=True, session_token="ab12cd34ef56ab12", resume_from=0
        )
        for _ in range(40):
            mutated = bytearray(pristine)
            for _ in range(rng.randint(1, 3)):
                mutated[rng.randrange(len(mutated))] ^= 1 << rng.randrange(8)
            conn = RawConn(daemon, timeout=1.0)
            conn.send(bytes(mutated))
            # Whatever comes back — error frame, welcome (the flip was
            # harmless or hit the token), EOF, or silence while the
            # daemon waits out a corrupted length — must not wedge it.
            conn.read_frame()
            conn.close()
        # The daemon survived the storm: a clean client still works and
        # nothing was ingested along the way.
        host, port = daemon.tcp_address
        client = CheckerClient(host, port, auto_resume=True)
        client.connect()
        with client:
            client.submit_many(make_txns())
            stats = client.stats(include_bytes=False)
        assert stats["received"] == 3

    def test_token_reuse_cannot_double_ingest(self, daemon):
        host, port = daemon.tcp_address
        client = CheckerClient(host, port, auto_resume=True)
        client.connect()
        txns = make_txns()
        with client:
            client.submit_many(txns)
            token = client.session_token
        # A second producer replays the same token AND the same already-
        # acked sequence number: the daemon must dedup by watermark.
        conn = RawConn(daemon)
        conn.send(encode_hello_frame(session=True, session_token=token, resume_from=0))
        kind, welcome = conn.read_frame()
        assert kind == K_WELCOME
        assert welcome["session"]["resumed"] is True
        assert welcome["session"]["acked_seq"] == 1
        conn.send(encode_submit_frame(txns, seq=1))
        kind, ack = conn.read_frame()
        assert kind == K_ACK
        assert ack.get("duplicate") is True
        conn.close()
        stats = daemon_stats(daemon)
        assert stats["received"] == 3  # not 6
        assert stats["sessions"]["deduped_txns"] == 3

    def test_unknown_token_gets_fresh_session(self, daemon):
        """A well-formed token this daemon never issued (it restarted)
        opens a fresh session under a *newly minted* token — adopting
        the client's would let a producer squat another's session."""
        conn = RawConn(daemon)
        stranger = "deadbeefdeadbeef"
        conn.send(encode_hello_frame(session=True, session_token=stranger))
        kind, welcome = conn.read_frame()
        assert kind == K_WELCOME
        session = welcome["session"]
        assert session["resumed"] is False
        assert session["acked_seq"] == 0
        assert session["token"] != stranger
        conn.close()
