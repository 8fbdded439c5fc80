"""Shared asyncio HTTP/1.1 plumbing for the service daemon and the router.

One hand-rolled HTTP substrate, two processes built on it: the shard daemon
(:mod:`repro.service.server`) and the sharding router
(:mod:`repro.service.router`). Both speak the same dialect — request line +
headers + ``Content-Length`` body in, JSON out — over persistent (HTTP/1.1
keep-alive) connections, so the parsing, the per-connection request loop,
response framing, chunked-streaming helpers and the router's *client*-side
primitives (pooled JSON fetch, chunked-line relay) live here once instead
of twice.

Server side:

- :func:`read_request` parses one request off a stream reader under one
  timeout, :data:`READ_TIMEOUT`, which also bounds how long a connection
  may sit idle between requests (returns ``None`` for idle expiry, a
  closed peer or non-HTTP noise; raises :class:`PayloadTooLarge` for
  oversized bodies — the caller answers 413).
- :class:`Connections` runs one listener's connections: each serves
  requests until the client asks for ``Connection: close``, goes quiet,
  sends a stream request, or the process drains. :meth:`Connections.drain`
  closes the idle ones and answers requests in flight with ``close``.
- :func:`json_response` frames a complete JSON reply (``keep-alive``
  unless told to close).
- :func:`start_chunked` / :func:`write_chunk` / :func:`end_chunked`
  implement ``Transfer-Encoding: chunked`` NDJSON streaming, one JSON
  object per chunk, which is what ``POST /v1/stream`` responses use. A
  stream is the last reply on its connection (``Connection: close``).

Client side (asyncio — the router talking to its shards; the blocking
``repro.service.client`` keeps its stdlib ``http.client`` transport):

- :class:`ConnectionPool` keeps up to :data:`POOL_SIZE` idle connections
  to one shard and performs JSON round trips on them. A pooled connection
  the shard closed while it sat idle (idle expiry, drain, restart in
  place) fails before any response byte; it is dropped and the request is
  resent once on a fresh connection, so only a failure on a fresh
  connection reaches the caller.
- :func:`open_json_stream` opens a request on its own connection and
  yields the response's NDJSON lines incrementally, de-chunking as it
  reads — the primitive the router uses to relay shard streams to its own
  chunked response.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
from dataclasses import dataclass, field
from typing import Any, AsyncIterator, Awaitable, Callable

__all__ = [
    "DRAIN_GRACE",
    "MAX_BODY_BYTES",
    "POOL_SIZE",
    "READ_TIMEOUT",
    "REASONS",
    "ConnectionPool",
    "Connections",
    "PayloadTooLarge",
    "Request",
    "end_chunked",
    "json_response",
    "open_json_stream",
    "read_request",
    "start_chunked",
    "write_chunk",
]

REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    410: "Gone",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Largest request body accepted by default (a job spec is <1 KB; a stream
#: request is a few hundred specs at most — anything bigger is not ours).
MAX_BODY_BYTES = 512 * 1024

#: Seconds to read one request, counted from the end of the previous reply:
#: a stalled peer cannot pin a handler task, and an idle keep-alive
#: connection is closed after this long.
READ_TIMEOUT = 30.0

#: Seconds a drain waits for requests in flight (a shard's streams close
#: out within one poll) before it cancels them.
DRAIN_GRACE = 5.0

#: Idle keep-alive connections a :class:`ConnectionPool` keeps per shard.
#: Busier moments open extra connections and close them after one use.
POOL_SIZE = 8


class PayloadTooLarge(ValueError):
    """Request body exceeded the caller's limit; answer 413."""


@dataclass
class Request:
    """One parsed HTTP request (the subset a JSON API needs)."""

    method: str
    path: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    version: str = "HTTP/1.1"

    def json(self) -> Any:
        """Decode the body as JSON (``{}`` when empty); raises ValueError."""
        return json.loads(self.body.decode("utf-8") or "{}")

    @property
    def wants_close(self) -> bool:
        """True when the client asked for the connection to close after the
        reply (``Connection: close``, or HTTP/1.0 without keep-alive)."""
        tokens = {t.strip() for t in self.headers.get("connection", "").lower().split(",")}
        if self.version == "HTTP/1.0":
            return "keep-alive" not in tokens
        return "close" in tokens


# ----------------------------------------------------------------------
# Server side


async def _read_headers(reader: asyncio.StreamReader) -> dict[str, str]:
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            return headers
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()


async def _parse_request(reader: asyncio.StreamReader, max_body: int) -> Request | None:
    parts = (await reader.readline()).decode("latin-1").split()
    if len(parts) < 2:
        return None
    headers = await _read_headers(reader)
    length = int(headers.get("content-length", 0) or 0)
    if length > max_body:
        raise PayloadTooLarge(f"request body of {length} bytes exceeds {max_body}")
    body = await reader.readexactly(length) if length else b""
    version = parts[2].upper() if len(parts) > 2 else "HTTP/1.0"
    return Request(parts[0].upper(), parts[1], headers, body, version)


async def read_request(
    reader: asyncio.StreamReader,
    timeout: float = READ_TIMEOUT,
    max_body: int = MAX_BODY_BYTES,
) -> Request | None:
    """Parse one request off ``reader``; ``None`` means drop the connection.

    Raises :class:`PayloadTooLarge` when ``Content-Length`` exceeds
    ``max_body`` (the caller should answer 413 — the client *did* speak
    HTTP). Timeouts (including a connection idle for ``timeout`` seconds),
    a closed peer, truncated requests and undecodable bytes return
    ``None``: nothing to answer.
    """
    try:
        return await asyncio.wait_for(_parse_request(reader, max_body), timeout)
    except PayloadTooLarge:
        raise
    except (asyncio.TimeoutError, asyncio.IncompleteReadError, ConnectionError, ValueError):
        return None  # ValueError: undecodable bytes or Content-Length


def _head(status: int, headers: dict[str, str]) -> bytes:
    lines = [f"HTTP/1.1 {status} {REASONS.get(status, 'Unknown')}"]
    lines.extend(f"{k}: {v}" for k, v in headers.items())
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def json_response(
    status: int,
    payload: Any,
    extra: dict[str, str] | None = None,
    close: bool = False,
) -> bytes:
    """Frame a complete JSON response (status line, headers, body).

    The connection stays open for the next request unless ``close`` (the
    client asked for it, the process is draining, or the handler is about
    to drop the connection).
    """
    data = (json.dumps(payload) + "\n").encode("utf-8")
    headers = {
        "Content-Type": "application/json",
        "Content-Length": str(len(data)),
        "Connection": "close" if close else "keep-alive",
    }
    if extra:
        headers.update(extra)
    return _head(status, headers) + data


_Route = Callable[[Request], Awaitable[tuple[int, Any, dict[str, str]]]]
_Stream = Callable[[Request, asyncio.StreamWriter], Awaitable[None]]


class Connections:
    """The live connections of one listener: keep-alive loop and drain.

    ``route`` answers a unary request with ``(status, payload, extra
    headers)``. ``stream`` takes over the connection for ``POST
    /v1/stream`` and writes its own close-delimited reply; the connection
    closes after it. :meth:`handle` is the ``asyncio.start_server``
    callback.
    """

    def __init__(self, route: _Route, stream: _Stream) -> None:
        self.route = route
        self.stream = stream
        #: Set by :meth:`drain`: replies say ``close``, no request follows.
        self.draining = False
        self._idle: set[asyncio.StreamWriter] = set()
        self._tasks: set[asyncio.Task[None]] = set()

    async def handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        """Serve requests off one connection until it is done."""
        task = asyncio.current_task()
        if task is not None:
            self._tasks.add(task)
        try:
            while not self.draining:
                self._idle.add(writer)
                try:
                    request = await read_request(reader)
                except PayloadTooLarge:
                    # The body is still unread: the connection cannot carry
                    # another request.
                    writer.write(json_response(413, {"error": "request body too large"}, close=True))
                    await writer.drain()
                    return
                finally:
                    self._idle.discard(writer)
                if request is None:
                    return  # idle expiry, peer closed, or not HTTP: drop silently
                stream = request.method == "POST" and request.path.rstrip("/") == "/v1/stream"
                try:
                    if stream:
                        await self.stream(request, writer)
                        return
                    status, payload, extra = await self.route(request)
                except Exception as exc:  # handler bug: report, don't kill the process
                    status, payload, extra = 500, {"error": f"{type(exc).__name__}: {exc}"}, {}
                close = stream or request.wants_close or self.draining
                writer.write(json_response(status, payload, extra, close=close))
                await writer.drain()
                if close:
                    return
        except ConnectionError:  # client went away mid-reply
            pass
        except asyncio.CancelledError:
            # The drain gave up on this request after DRAIN_GRACE. End the
            # task normally: Python 3.12.1 reports a cancelled
            # start_server callback task as an error with a traceback.
            pass
        finally:
            if task is not None:
                self._tasks.discard(task)
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def drain(self, server: asyncio.AbstractServer) -> None:
        """Stop accepting, close idle connections, and wait for requests in
        flight to answer with ``close`` (cancelling them after
        :data:`DRAIN_GRACE` seconds).

        ``Server.wait_closed`` waits for every open connection on Python
        3.12+, so an idle keep-alive client would otherwise hold the drain
        for :data:`READ_TIMEOUT`.
        """
        self.draining = True
        server.close()
        for writer in list(self._idle):
            writer.close()  # the handler reads EOF and returns
        if self._tasks:
            _, pending = await asyncio.wait(set(self._tasks), timeout=DRAIN_GRACE)
            for task in pending:
                task.cancel()
            await asyncio.gather(*pending, return_exceptions=True)
        await server.wait_closed()


async def start_chunked(
    writer: asyncio.StreamWriter, status: int = 200, extra: dict[str, str] | None = None
) -> None:
    """Begin a chunked NDJSON response (one JSON object per chunk)."""
    headers = {
        "Content-Type": "application/x-ndjson",
        "Transfer-Encoding": "chunked",
        "Connection": "close",
    }
    if extra:
        headers.update(extra)
    writer.write(_head(status, headers))
    await writer.drain()


async def write_chunk(writer: asyncio.StreamWriter, obj: Any) -> None:
    """Send one JSON object as one chunk (newline-terminated line)."""
    data = (json.dumps(obj) + "\n").encode("utf-8")
    writer.write(f"{len(data):x}\r\n".encode("latin-1") + data + b"\r\n")
    await writer.drain()


async def end_chunked(writer: asyncio.StreamWriter) -> None:
    """Send the terminating zero-length chunk."""
    writer.write(b"0\r\n\r\n")
    await writer.drain()


# ----------------------------------------------------------------------
# Client side (asyncio; used by the router to talk to shards)


class _PeerClosed(ConnectionError):
    """The peer closed the connection before sending any response byte."""


def _request_bytes(
    method: str,
    path: str,
    host: str,
    body: Any | None,
    close: bool,
) -> bytes:
    payload = json.dumps(body).encode("utf-8") if body is not None else b""
    head = {"Host": host}
    if close:
        head["Connection"] = "close"
    if payload:
        head["Content-Type"] = "application/json"
        head["Content-Length"] = str(len(payload))
    lines = [f"{method} {path} HTTP/1.1"]
    lines.extend(f"{k}: {v}" for k, v in head.items())
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + payload


async def _send_and_read_head(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter, data: bytes
) -> tuple[int, dict[str, str]]:
    """Write a request and read the reply's status line and headers."""
    try:
        writer.write(data)
        await writer.drain()
        status_line = await reader.readline()
    except ConnectionError as exc:
        raise _PeerClosed(str(exc)) from exc
    if not status_line:
        raise _PeerClosed("connection closed before the status line")
    parts = status_line.decode("latin-1").split(None, 2)
    if len(parts) < 2 or not parts[1].isdigit():
        raise ConnectionError(f"malformed status line from shard: {status_line!r}")
    return int(parts[1]), await _read_headers(reader)


class ConnectionPool:
    """Idle keep-alive connections to one shard, and JSON round trips on them.

    Used from one event loop only: a connection is either idle in the pool
    or owned by exactly one :meth:`fetch_json` call.
    """

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._idle: list[tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []

    async def fetch_json(
        self,
        method: str,
        path: str,
        body: Any | None = None,
        timeout: float = READ_TIMEOUT,
    ) -> tuple[int, Any, dict[str, str]]:
        """One JSON round trip; returns ``(status, payload, headers)``.

        A pooled connection that fails before any response byte is dropped
        and the request resent once on a fresh connection. Raises
        ``OSError``/``ConnectionError``/``asyncio.TimeoutError`` when the
        fresh connection fails, or when a pooled one fails in any other way
        — the router maps those to "shard down".
        """
        data = _request_bytes(method, path, f"{self.host}:{self.port}", body, False)
        if self._idle:
            reader, writer = self._idle.pop()  # most recently used first
            try:
                return await self._exchange(reader, writer, data, timeout)
            except _PeerClosed:
                pass  # stale: resend once on a fresh connection
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(self.host, self.port), timeout
        )
        return await self._exchange(reader, writer, data, timeout)

    async def _exchange(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        data: bytes,
        timeout: float,
    ) -> tuple[int, Any, dict[str, str]]:
        async def round_trip() -> tuple[int, dict[str, str], bytes]:
            status, headers = await _send_and_read_head(reader, writer, data)
            if "content-length" in headers:
                return status, headers, await reader.readexactly(int(headers["content-length"]))
            return status, headers, await reader.read()  # close-delimited

        try:
            status, headers, raw = await asyncio.wait_for(round_trip(), timeout)
        except BaseException:
            writer.close()
            raise
        reusable = (
            "content-length" in headers
            and headers.get("connection", "").lower() != "close"
            and len(self._idle) < POOL_SIZE
        )
        if reusable:
            self._idle.append((reader, writer))
        else:
            writer.close()
        try:
            decoded = json.loads(raw) if raw else None
        except json.JSONDecodeError:
            decoded = raw.decode("utf-8", "replace")
        return status, decoded, headers

    def close(self) -> None:
        """Close every idle connection (shard marked down, router exit)."""
        for _, writer in self._idle:
            writer.close()
        self._idle.clear()


async def open_json_stream(
    host: str,
    port: int,
    method: str,
    path: str,
    body: Any | None = None,
    timeout: float = READ_TIMEOUT,
) -> tuple[int, dict[str, str], AsyncIterator[Any]]:
    """Open a streaming request; returns ``(status, headers, line_iter)``.

    ``line_iter`` yields one decoded JSON object per NDJSON line of the
    response body, de-chunking when the peer sent ``Transfer-Encoding:
    chunked`` and reading to EOF otherwise. The iterator must be consumed
    (or the connection garbage-collected) to release the socket. On a
    non-2xx status the caller typically reads the error payload via the
    iterator's first line instead.
    """
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), timeout
    )
    data = _request_bytes(method, path, f"{host}:{port}", body, True)
    try:
        status, resp_headers = await asyncio.wait_for(
            _send_and_read_head(reader, writer, data), timeout
        )
    except BaseException:
        writer.close()
        raise

    chunked = resp_headers.get("transfer-encoding", "").lower() == "chunked"

    async def lines() -> AsyncIterator[Any]:
        buf = b""
        try:
            if chunked:
                while True:
                    size_line = await asyncio.wait_for(reader.readline(), timeout)
                    size = int(size_line.strip() or b"0", 16)
                    if size == 0:
                        break
                    data = await asyncio.wait_for(reader.readexactly(size), timeout)
                    await asyncio.wait_for(reader.readexactly(2), timeout)  # CRLF
                    buf += data
                    while b"\n" in buf:
                        line, buf = buf.split(b"\n", 1)
                        if line.strip():
                            yield json.loads(line)
            else:
                while True:
                    line = await asyncio.wait_for(reader.readline(), timeout)
                    if not line:
                        break
                    if line.strip():
                        yield json.loads(line)
            if buf.strip():
                yield json.loads(buf)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    return status, resp_headers, lines()
