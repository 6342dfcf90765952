"""The asyncio checker daemon: lifecycle and the connection edge.

:class:`CheckerService` turns an in-process online checker into a
long-running network service — the continuous collector→checker loop of
the paper's deployment story (§IV-C, §VI): producers tail a database's
CDC/WAL stream and push committed transactions over the wire; the daemon
checks them as they arrive and pushes verdicts back.

This module is the part that talks to sockets: it binds the listeners,
reads each connection as a stream of v2 frames (``_read_frame``; the
first frame header that fails to parse gets one ``error`` and closes the
connection), and feeds one ``_dispatch``.  A ``submit`` leaves the
reader as a :class:`ColumnarBatch` and runs the one admission sequence
of ``_admit``; from the queue on there is a single path, owned
by :class:`repro.service.ingest.IngestPipeline` (architecture diagram
and the ordering / backpressure / serialized-ingestion argument there).
Resume sessions live in :class:`repro.service.sessions.SessionTable`,
every introspection surface in :class:`repro.service.status.StatusView`;
the wire contract is specified in :mod:`repro.service.protocol`.

:class:`ServiceThread` hosts a daemon on a background thread with its
own event loop — the harness used by the blocking client's tests and the
benchmark ladder's in-thread rung, and a one-liner for embedding the service in
a synchronous program.

The daemon offers no TLS and needs no :mod:`ssl`.  This module imports
asyncio as any other does; :mod:`repro.commands.serve` imports it first,
with ``ssl`` masked, so only the ``repro serve`` process maps no
OpenSSL.  A program that embeds :class:`CheckerService` or
:class:`ServiceThread` keeps the asyncio it loaded, ``ssl`` included.
"""

from __future__ import annotations

import asyncio
import functools
import gc
import json
import sys
import threading
import time
from collections import deque
from concurrent.futures import CancelledError as FutureCancelled
from concurrent.futures import TimeoutError as FutureTimeout
from typing import TYPE_CHECKING, Any, Callable, Coroutine, Deque, Dict, List, Optional, Set, Tuple

from repro.core.batch import ColumnarBatch
from repro.core.violations import CheckResult
from repro.obs.trace import SlowBatchLog
from repro.service.config import ServiceConfig
from repro.service.framing import (
    HEADER_SIZE,
    SERVER_KIND_OF_TYPE,
    decode_frame_header,
    decode_frame_payload,
    encode_json_frame,
)
from repro.service.ingest import IngestPipeline
from repro.service.protocol import PROTOCOL_VERSION, ProtocolError, result_to_dict
from repro.service.sessions import SessionTable
from repro.service.status import StatusView

if TYPE_CHECKING:
    from repro.obs.http import HttpSidecar

__all__ = ["CheckerService", "ServiceThread"]

#: A subscriber whose transport buffer exceeds this is disconnected: the
#: drain loop never awaits a subscriber's socket, so a consumer that
#: stops reading must be shed — not allowed to stall all checking.
_MAX_SUBSCRIBER_BUFFER = 8 * 1024 * 1024

#: Violation pushes kept for late subscribers (``subscribe`` with
#: ``replay``).  Bounds daemon memory on a violation-heavy stream; a
#: replay delivers the most recent window, live pushes are never lost.
_MAX_REPLAY_BACKLOG = 10_000

#: The online checkers refuse list (append) histories; admission says so
#: to the submitting producer instead of acking a batch the drain cycle
#: would then drop together with everything drained beside it.
_APPEND_REFUSAL = (
    "submit refused: the online checkers take key-value histories; "
    "list (append) histories are checked offline by Chronos"
)

_Reader = asyncio.StreamReader
_Writer = asyncio.StreamWriter
_Msg = Dict[str, Any]


class _Hangup(Exception):
    """Raised by a message reader to close its connection."""


def _encode_frame(message: _Msg) -> bytes:
    return encode_json_frame(SERVER_KIND_OF_TYPE[message["type"]], message)


class CheckerService:
    """One daemon instance: listeners, connections, and the parts behind them."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.config.validate()
        self.checker = self.config.build_checker()
        self._servers: List[asyncio.base_events.Server] = []
        self._subscribers: Set[_Writer] = set()
        self._subscribers_shed = 0
        self._connections: Set[_Writer] = set()
        self._stopped = asyncio.Event()
        self._shutting_down = False
        self._shutdown_done: Optional[asyncio.Task] = None
        self.tcp_address: Optional[Tuple[str, int]] = None
        self.unix_path: Optional[str] = None
        self.final_result: Optional[CheckResult] = None
        #: ``stats(include_bytes=False)`` as the graceful shutdown left
        #: it, taken before the checker is closed — closing releases the
        #: spill store whose byte and reload counts the snapshot reports.
        self.final_stats: Optional[Dict[str, Any]] = None
        #: Violation messages handed to _broadcast, in push order — the
        #: replay backlog for late subscribers.  Maintained on the event
        #: loop so subscribe-with-replay can snapshot it and join
        #: _subscribers without an await in between (atomic w.r.t.
        #: broadcasts: no duplicate, no missed push).  Bounded: oldest
        #: entries fall off a violation-heavy stream.
        self._violation_log: Deque[_Msg] = deque(maxlen=_MAX_REPLAY_BACKLOG)
        #: Frame counters, exported as ``stats()["wire"]["v2"]``.
        #: Touched only from the event-loop thread (reads from stats()
        #: may tear across keys, which is fine for monotonic counters).
        counters = ("frames_in", "bytes_in", "frames_out", "bytes_out", "decode_errors")
        self._wire: Dict[str, int] = dict.fromkeys(counters, 0)
        #: HTTP observability sidecar (``/metrics``, ``/health``,
        #: ``/stats``); bound in :meth:`start` when ``http_port`` is set.
        self._http: Optional[HttpSidecar] = None
        self.http_address: Optional[Tuple[str, int]] = None
        #: Slow-batch trace ring (see :mod:`repro.obs.trace`), wired as
        #: the kernel's ``on_slow_batch`` hook when ``slow_batch_ms`` is
        #: configured.
        self.slow_batch_log = SlowBatchLog()
        kernel_stats = self.checker.kernel_stats
        kernel_stats.sample_every = self.config.kernel_sample_every
        if self.config.slow_batch_ms is not None:
            kernel_stats.slow_threshold = self.config.slow_batch_ms / 1000.0
            kernel_stats.on_slow_batch = self.slow_batch_log.record
        self._ingest = IngestPipeline(self.config, self.checker, self._broadcast)
        self._sessions = SessionTable()
        self._status = StatusView(
            self._ingest, self._sessions, self._edge_facts, self.slow_batch_log
        )
        #: The submit→verdict latency histogram (owned by the pipeline).
        self.latency = self._ingest.latency

    async def start(self) -> None:
        """Bind the configured listeners and start the drain loop."""
        config, serve = self.config, self._handle_connection
        # The readers keep asyncio's default 64 KiB buffer limit: readexactly
        # still takes a frame of any allowed length, and a producer with
        # frames in flight waits on TCP instead of on the daemon's buffer.
        if config.port is not None:
            server = await asyncio.start_server(serve, host=config.host, port=config.port)
            self._servers.append(server)
            self.tcp_address = server.sockets[0].getsockname()[:2]
        if config.unix_path is not None:
            server = await asyncio.start_unix_server(serve, path=str(config.unix_path))
            self._servers.append(server)
            self.unix_path = str(config.unix_path)
        if config.http_port is not None:
            from repro.obs.http import HttpSidecar

            routes = {
                "/metrics": self._http_metrics,
                "/health": self._http_health,
                "/stats": self._http_stats,
            }
            self._http = HttpSidecar(config.host, config.http_port, routes)
            await self._http.start()
            self.http_address = self._http.address
        gc.callbacks.append(self._status.host_gc)
        self._ingest.start()

    async def wait_closed(self) -> None:
        """Block until a graceful shutdown completes."""
        await self._stopped.wait()

    async def shutdown(self) -> CheckResult:
        """Graceful stop: drain, finalize, broadcast, disconnect.

        Safe to call more than once (later callers await the first
        shutdown and receive the same final result).
        """
        if self._shutdown_done is None:
            self._shutting_down = True
            self._shutdown_done = asyncio.get_running_loop().create_task(self._shutdown_impl())
        return await asyncio.shield(self._shutdown_done)

    async def abort(self) -> None:
        """Ungraceful stop — the chaos harness's stand-in for a crash.

        Closes listeners and connections and cancels the drain/tick
        tasks without draining, finalizing, or saying goodbye: clients
        see a dead socket, exactly as after a SIGKILL.  Queued-but-
        unchecked transactions are dropped, and the in-memory session
        table dies with the process image — resuming clients get fresh
        sessions from this daemon's successor, which is why a restart
        supervisor must re-feed the acked prefix (see
        :mod:`repro.chaos.campaign`).
        """
        self._shutting_down = True
        try:
            self._close_listeners()
            await self._ingest.cancel()
            for writer in list(self._connections):
                self._close_writer(writer)
            # Clients must see a crash, but the host process should not
            # leak the spill directory: release checker resources after
            # the sockets are already dead.
            try:
                self.checker.close()
            except Exception:  # pragma: no cover - best-effort cleanup
                pass
        finally:
            self._mark_stopped()

    def _mark_stopped(self) -> None:
        """The last step of either way of stopping."""
        if self._status.host_gc in gc.callbacks:
            gc.callbacks.remove(self._status.host_gc)
        self._stopped.set()

    def _close_listeners(self) -> None:
        # Server.wait_closed() is never awaited: since Python 3.12.1 it
        # blocks until every connection handler returns, and shutdown is
        # typically awaited *by* a handler (a wire shutdown request) — a
        # circular wait.  close() alone already closes the listening
        # sockets; remaining handler cleanup happens when the loop exits.
        for server in self._servers:
            server.close()
        if self._http is not None:
            self._http.close()

    async def _shutdown_impl(self) -> CheckResult:
        # However shutdown ends — cleanly or with a raising finalize /
        # broadcast / close — _stopped must be set, or wait_closed()
        # (and `repro serve`, and ServiceThread.stop()) hangs forever on
        # a daemon that can no longer recover.
        try:
            self._close_listeners()
            # Everything reported as admitted is checked by the live
            # drain loop before it stops, and every fully admitted
            # submit's ack leaves as the drain takes it — before the
            # farewell below.
            await self._ingest.drain_and_stop()
            result = self.final_result = await self._ingest.finalize()
            # Every open connection — subscribed or not — receives the
            # final result before its socket closes, so a client that
            # requested the shutdown reads the verdict it asked for.
            farewell = {"type": "result", **result_to_dict(result)}
            for writer in list(self._connections):
                self._send(writer, farewell)
                self._send(writer, {"type": "bye"})
            for writer in list(self._connections):
                self._close_writer(writer)
            self.final_stats = self.stats(False)
            self.checker.close()
            return result
        finally:
            self._mark_stopped()

    def _welcome_message(self) -> _Msg:
        return {
            "type": "welcome",
            "protocol": PROTOCOL_VERSION,
            "checker": self.config.checker_kind,
            "level": self.config.level,
        }

    async def _handle_connection(self, reader: _Reader, writer: _Writer) -> None:
        self._connections.add(writer)
        self._send(writer, self._welcome_message())
        # One key memo per connection, dropped at disconnect: a submit's
        # keys are the objects this connection decoded first, which the
        # checker holds already, instead of a fresh string per key per
        # submit.  It grows with the key space only, as the checker's
        # frontier and read index do.
        memo: Dict[str, str] = {}
        try:
            while True:
                message = await self._read_frame(reader, writer, memo)
                if message is not None and not await self._dispatch(message, writer):
                    break
        except (_Hangup, ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._subscribers.discard(writer)
            self._connections.discard(writer)
            # The session itself survives in the table: that is what a
            # reconnecting client resumes against.
            self._sessions.detach(writer)
            self._close_writer(writer)

    async def _read_frame(
        self, reader: _Reader, writer: _Writer, memo: Dict[str, str]
    ) -> Optional[_Msg]:
        """One frame → a message for ``_dispatch`` (None: rejected here).
        A submit's payload decodes straight into a :class:`ColumnarBatch`
        under ``message["batch"]``, its keys shared through the
        connection's ``memo``.  Raises :class:`_Hangup` at end of stream."""
        wire = self._wire
        try:
            header = await reader.readexactly(HEADER_SIZE)
        except asyncio.IncompleteReadError as exc:
            if exc.partial:
                wire["decode_errors"] += 1
            raise _Hangup from None
        try:
            frame_kind, length = decode_frame_header(header)
            payload = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            wire["decode_errors"] += 1
            raise _Hangup from None
        except ProtocolError as exc:
            # A bad header means the stream position is lost; binary
            # framing cannot resync, so close.
            wire["decode_errors"] += 1
            self._refuse(writer, str(exc))
            raise _Hangup from None
        wire["frames_in"] += 1
        wire["bytes_in"] += HEADER_SIZE + length
        try:
            return decode_frame_payload(frame_kind, payload, memo)
        except ProtocolError as exc:
            # The framing survived (length was honoured), so the
            # connection can too — reject this message.
            wire["decode_errors"] += 1
            self._refuse(writer, str(exc))
            return None

    def _handle_hello(self, message: _Msg, writer: _Writer) -> None:
        """Answer a hello with a welcome — carrying session/resume state
        when the hello asked for it."""
        welcome = self._welcome_message()
        if "session_token" in message or "resume_from" in message:
            try:
                welcome["session"] = self._sessions.attach(writer, message)
            except ProtocolError as exc:
                # The framing survived, so the connection does too — the
                # offending hello is rejected without a session, and the
                # client must reconnect or re-hello to get one.
                self._refuse(writer, str(exc))
                return
        self._send(writer, welcome)

    async def _dispatch(self, message: _Msg, writer: _Writer) -> bool:
        """Handle one request; returns False to close the connection."""
        kind = message["type"]
        seq = message.get("seq")
        if kind == "ping":
            self._send(writer, {"type": "pong", "seq": seq})
        elif kind == "hello":
            self._handle_hello(message, writer)
        elif kind == "submit":
            await self._admit(message["batch"], seq, writer)
        elif kind == "subscribe":
            self._send(writer, {"type": "subscribed", "seq": seq})
            if message.get("replay"):
                # Backlog then membership, with no await in between —
                # broadcasts run on this same loop, so the backlog and
                # the live stream partition exactly.
                for push in self._violation_log:
                    self._send(writer, push)
            self._subscribers.add(writer)
        elif kind == "stats":
            stats = self.stats(bool(message.get("bytes", True)))
            self._send(writer, {"type": "stats", "seq": seq, "stats": stats})
        elif kind == "drain":
            processed = await self._ingest.drain()
            self._send(writer, {"type": "drained", "seq": seq, "processed": processed})
        elif kind == "finalize":
            result = await self._ingest.finalize()
            self._send(writer, {"type": "result", "seq": seq, **result_to_dict(result)})
        elif kind == "shutdown":
            # shutdown() sends the final result and a bye to every open
            # connection (this one included) before closing the sockets.
            await self.shutdown()
            return False
        else:
            self._refuse(writer, f"unknown message type {kind!r}", seq=seq)
        return True

    async def _admit(self, batch: ColumnarBatch, seq: Optional[int], writer: _Writer) -> None:
        """The one admission sequence: refuse (shutting down / empty /
        appends) → ``(session, seq)`` dedup → slices into the queue →
        watermark; the ack rides on the last slice.

        An acked submit is acked when the drain task takes its last
        slice, before that slice is checked — so a producer's window of
        unacked frames bounds how much of its stream waits unchecked in
        the queue, and the ack precedes any violation its batch pushes.
        The watermark advances as soon as the last slice is admitted,
        before the ack leaves: a resume that finds the submit still
        queued sees it covered, and a resubmission of it gets a
        ``duplicate`` ack at once, possibly before the original's ack.
        A refusal is sent at once too.
        """
        # Latency stamp taken once at decode: the histogram then measures
        # queue wait + checking, i.e. the daemon-side submit→verdict path;
        # the time a frame waits in socket buffers before its connection's
        # reader decodes it is not counted.
        stamp = time.monotonic()
        total = len(batch)
        refusal = None
        if self._shutting_down:
            refusal = "service is shutting down"
        elif total == 0:
            refusal = "submit carries no transactions"
        elif batch.has_appends:
            refusal = _APPEND_REFUSAL
        if refusal is not None:
            self._refuse(writer, refusal, seq=seq)
            return
        if self._sessions.is_duplicate(writer, seq, total):
            # Ingested on a previous connection (only its ack was lost):
            # acked again without touching the queue, which is what
            # makes reconnect-and-replay exactly-once.
            self._send(writer, {"type": "ack", "seq": seq, "enqueued": total, "duplicate": True})
            return
        admitted = 0
        ack = None
        for piece in batch.slices(self.config.batch_size):
            # Re-checked per slice: a shutdown can start while this
            # handler is suspended on a full queue, and slices admitted
            # past that point race the final drain.
            if self._shutting_down:
                break
            if seq is not None and admitted + len(piece) == total:
                ack = functools.partial(
                    self._send, writer, {"type": "ack", "seq": seq, "enqueued": total}
                )
            await self._ingest.put(piece, stamp, ack)
            admitted += len(piece)
        if seq is None:
            return
        if admitted < total:
            told = f"service is shutting down; admitted {admitted} of {total} transactions"
            self._refuse(writer, told, seq=seq)
        else:
            self._sessions.advance(writer, seq)

    def _refuse(self, writer: _Writer, text: str, **seq: Optional[int]) -> None:
        """An ``error`` reply; the connection survives, the request does not."""
        self._send(writer, {"type": "error", **seq, "message": text})

    def _send(self, writer: _Writer, message: _Msg) -> None:
        if writer.is_closing():
            return
        try:
            data = _encode_frame(message)
            writer.write(data)
            self._wire["frames_out"] += 1
            self._wire["bytes_out"] += len(data)
        except (ConnectionResetError, BrokenPipeError, RuntimeError):
            self._subscribers.discard(writer)

    async def _broadcast(self, messages: List[_Msg]) -> None:
        """Push ``messages`` to every subscriber without ever blocking.

        Never awaits a subscriber's socket — a consumer that stops
        reading must not stall checking for everyone else.  Bytes queue
        in the transport; a subscriber whose buffer outgrows
        :data:`_MAX_SUBSCRIBER_BUFFER` is shed (and counted) instead of
        waited on.
        """
        self._violation_log.extend(messages)
        if not messages or not self._subscribers:
            return
        payload = b"".join(map(_encode_frame, messages))
        wire = self._wire
        for writer in list(self._subscribers):
            if writer.is_closing():
                self._subscribers.discard(writer)
                continue
            try:
                writer.write(payload)
                wire["frames_out"] += len(messages)
                wire["bytes_out"] += len(payload)
                if writer.transport.get_write_buffer_size() > _MAX_SUBSCRIBER_BUFFER:
                    self._subscribers.discard(writer)
                    self._subscribers_shed += 1
                    self._close_writer(writer)
                    print(
                        "repro.service: dropped a subscriber that stopped reading", file=sys.stderr
                    )
            except (ConnectionResetError, BrokenPipeError, RuntimeError):
                self._subscribers.discard(writer)

    def _close_writer(self, writer: _Writer) -> None:
        try:
            if not writer.is_closing():
                writer.close()
        except RuntimeError:
            pass

    def _edge_facts(self) -> Dict[str, Any]:
        """What only the connection edge knows, for the status view."""
        return {
            # Keyed by codec, v2 the only one: the benchmark ladder reads ["wire"]["v2"].
            "wire": {"v2": dict(self._wire)},
            "subscribers": len(self._subscribers),
            "subscribers_shed": self._subscribers_shed,
            "connections": len(self._connections),
            "backlog": (len(self._violation_log), self._violation_log.maxlen or 0),
            "shutting_down": self._shutting_down,
        }

    def stats(self, include_bytes: bool = True) -> Dict[str, Any]:
        """Counters for the ``STATS`` request (and the CLI's summary);
        see :meth:`repro.service.status.StatusView.stats`."""
        return self._status.stats(include_bytes)

    def health(self) -> Tuple[bool, Dict[str, Any]]:
        """Componentized liveness: ``(overall ok, JSON-ready detail)``;
        see :meth:`repro.service.status.StatusView.health`."""
        return self._status.health()

    async def _http_metrics(self) -> Tuple[int, str, bytes]:
        body = self._status.render_metrics().encode("utf-8")
        return 200, "text/plain; version=0.0.4; charset=utf-8", body

    async def _http_health(self) -> Tuple[int, str, bytes]:
        ok, payload = self.health()
        body = (json.dumps(payload, indent=2) + "\n").encode("utf-8")
        return (200 if ok else 503), "application/json", body

    async def _http_stats(self) -> Tuple[int, str, bytes]:
        stats = self.stats(True)
        body = (json.dumps(stats, indent=2, default=str) + "\n").encode("utf-8")
        return 200, "application/json", body


class ServiceThread:
    """Host a :class:`CheckerService` on a dedicated background thread.

    The blocking client library cannot share a thread with the daemon's
    event loop; this helper gives tests, benchmarks, and synchronous
    embedders a daemon that behaves like a separate process::

        with ServiceThread(ServiceConfig(port=0)) as handle:
            client = CheckerClient(*handle.tcp_address)
            ...

    ``stop()`` performs the daemon's graceful drain-then-finalize
    shutdown and returns the final :class:`CheckResult` (also reachable
    afterwards as ``handle.service.final_result`` when a client already
    shut the daemon down over the wire).
    """

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.service: Optional[CheckerService] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    def start(self, timeout: float = 30.0) -> "ServiceThread":
        self._thread = threading.Thread(target=self._run, name="repro-service", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout):
            raise TimeoutError("service thread did not start in time")
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # pragma: no cover - surfaced via start()
            if not self._ready.is_set():
                self._startup_error = exc
                self._ready.set()

    async def _main(self) -> None:
        self.service = CheckerService(self.config)
        self._loop = asyncio.get_running_loop()
        try:
            await self.service.start()
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        await self.service.wait_closed()

    @property
    def tcp_address(self) -> Tuple[str, int]:
        assert self.service is not None and self.service.tcp_address is not None
        return self.service.tcp_address

    @property
    def http_address(self) -> Tuple[str, int]:
        assert self.service is not None and self.service.http_address is not None
        return self.service.http_address

    def stop(self, timeout: float = 30.0) -> Optional[CheckResult]:
        """Gracefully stop the daemon; returns the final result."""
        if self._thread is None or self.service is None:
            return None
        self._run_on_loop(self.service.shutdown, timeout)
        self._thread.join(timeout)
        return self.service.final_result

    def kill(self, timeout: float = 10.0) -> None:
        """Hard-stop the daemon — no drain, no finalize, no goodbyes.

        The chaos harness's stand-in for ``kill -9``: clients observe a
        dead socket mid-conversation and all daemon-side state (queued
        transactions, checker memory, session table) is lost.
        """
        if self._thread is None or self.service is None:
            return
        self._run_on_loop(self.service.abort, timeout)
        self._thread.join(timeout)

    def _run_on_loop(
        self, stopping: Callable[[], Coroutine[Any, Any, Any]], timeout: float
    ) -> None:
        """Run ``stopping()`` on the daemon's loop and wait for it.

        A service that has already stopped (a client shut it down) gets
        no coroutine, and one the loop never runs is closed here, so none
        is left never awaited.
        """
        assert self._thread is not None and self.service is not None
        if not self._thread.is_alive() or self._loop is None or self.service._stopped.is_set():
            return
        coroutine = stopping()
        try:
            future = asyncio.run_coroutine_threadsafe(coroutine, self._loop)
        except RuntimeError:  # the loop has closed
            coroutine.close()
            return
        deadline = time.monotonic() + timeout
        while True:
            try:
                future.result(0.2)
                return
            except FutureTimeout:
                # A loop that finished between the is_alive() check and
                # the hand-off never runs the coroutine.
                if not self._thread.is_alive():
                    future.cancel()
                    coroutine.close()
                    return
                if time.monotonic() >= deadline:
                    raise
            except (RuntimeError, FutureCancelled):
                # The loop is exiting and cancelled the hand-off with its
                # other tasks (a client shut the daemon down).
                return

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
