"""A minimal asyncio HTTP sidecar — no aiohttp, no frameworks.

The daemon's wire protocol is for producers; operators point Prometheus
(and ``curl``) at this sidecar instead.  It implements exactly the
slice of HTTP/1.1 a scrape loop needs: parse a ``GET`` request line,
skip the headers, dispatch on the path, answer with a fixed-length
body, close.  Keep-alive is deliberately not offered (``Connection:
close``) — scrape intervals dwarf connection setup, and a
one-connection-per-request server cannot leak per-connection state.

Handlers are async callables returning ``(status, content_type,
body_bytes)``; they run on the daemon's event loop, the thread that
also runs the checker, so a handler reads checker state directly and
is served between kernel batches, as wire requests are.
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable, Dict, Optional, Tuple

__all__ = ["HttpSidecar"]

#: One request line plus headers must fit in this; a scrape request is
#: a few hundred bytes, so anything larger is not a scraper.
_MAX_REQUEST_BYTES = 16 * 1024

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: An HTTP handler: ``() -> (status, content_type, body)``.
HandlerT = Callable[[], Awaitable[Tuple[int, str, bytes]]]


class HttpSidecar:
    """Serve a fixed route table over HTTP/1.1, one request per connection."""

    def __init__(self, host: str, port: int, routes: Dict[str, HandlerT]) -> None:
        self.host = host
        self.port = port
        self.routes = routes
        self._server: Optional[asyncio.base_events.Server] = None
        #: Bound (host, port) after :meth:`start` — read this back when
        #: the configured port was 0 (ephemeral).
        self.address: Optional[Tuple[str, int]] = None

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=self.port, limit=_MAX_REQUEST_BYTES
        )
        self.address = self._server.sockets[0].getsockname()[:2]

    def close(self) -> None:
        if self._server is not None:
            self._server.close()
            self._server = None

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            try:
                request_line = await reader.readline()
            except (asyncio.LimitOverrunError, ValueError):
                await self._respond(writer, 400, "text/plain", b"request too large\n")
                return
            parts = request_line.decode("latin-1", "replace").split()
            if len(parts) < 2:
                await self._respond(writer, 400, "text/plain", b"malformed request\n")
                return
            method, target = parts[0], parts[1]
            # Drain headers up to the blank line; their content is
            # irrelevant to a fixed GET route table.
            while True:
                try:
                    header = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await self._respond(writer, 400, "text/plain", b"headers too large\n")
                    return
                if header in (b"\r\n", b"\n", b""):
                    break
            if method != "GET":
                await self._respond(writer, 405, "text/plain", b"only GET is served\n")
                return
            path = target.split("?", 1)[0]
            handler = self.routes.get(path)
            if handler is None:
                known = ", ".join(sorted(self.routes))
                await self._respond(
                    writer, 404, "text/plain", f"unknown path; try: {known}\n".encode()
                )
                return
            try:
                status, content_type, body = await handler()
            except Exception as exc:
                # A failing handler must answer (a scraper treats a
                # dropped connection and a 500 very differently) and
                # must not take the sidecar down with it.
                body = f"handler error: {type(exc).__name__}: {exc}\n".encode()
                await self._respond(writer, 500, "text/plain", body)
                return
            await self._respond(writer, status, content_type, body)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            try:
                if not writer.is_closing():
                    writer.close()
            except RuntimeError:
                pass

    @staticmethod
    async def _respond(
        writer: asyncio.StreamWriter, status: int, content_type: str, body: bytes
    ) -> None:
        reason = _STATUS_TEXT.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        try:
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
