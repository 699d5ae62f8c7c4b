"""A minimal asyncio HTTP/1.1 server — just enough for the control plane.

The serving layer cannot pull in a web framework (the repo is
stdlib-only), and it does not need one: the control plane speaks a
narrow dialect — JSON request bodies sized by ``Content-Length``,
JSON or text responses, keep-alive connections, and one streaming
endpoint (``/v1/events``) that uses chunked transfer encoding.  This
module implements exactly that dialect and nothing more: no TLS, no
multipart, and pipelined requests on one connection are answered one
at a time, in order.

Framing is an :class:`asyncio.Protocol`: a connection buffers bytes
and parses a request only once its head and body are both complete,
so neither the parse nor the handler ever waits on the wire.  The
handler contract (:data:`Handler`) is one call per request returning
an awaitable :class:`Response`:

* a :class:`Response` — answered now, written from ``data_received``
  with no Task and no extra loop turn;
* an :class:`asyncio.Future` resolving to one — answered from the
  future's done callback (the app's group commit resolves these);
* any other awaitable, such as a coroutine — run as a Task and answered
  when it finishes.

Unlike every layer below it, this module lives in wall-clock land:
socket readiness is real time.  That is the design, not an accident —
the serving layer is the boundary where the deterministic simulation
meets live clients, and the ``determinism`` lint rule's scope table
names only the simulated layers precisely so this one can be honest
about being a network service.
"""

from __future__ import annotations

import asyncio
import functools
import json
from dataclasses import dataclass, field
from typing import AsyncIterator, Awaitable, Callable
from urllib.parse import parse_qsl, urlsplit

#: Parsing limits: a control-plane request is small; anything bigger
#: is a client bug and gets a 4xx rather than unbounded buffering.
MAX_HEADER_BYTES = 64 * 1024
MAX_BODY_BYTES = 4 * 1024 * 1024

#: A connection that is still answering stops reading once this much
#: of the next requests is buffered (TCP then pushes back on the peer).
_READ_PAUSE_BYTES = 2 * MAX_HEADER_BYTES

_STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpProtocolError(Exception):
    """The peer sent something that is not the HTTP we speak."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: dict[str, str]
    headers: dict[str, str]
    body: bytes = b""

    def json(self):
        """Decode the body as JSON; raise :class:`HttpProtocolError` on junk."""
        if not self.body:
            raise HttpProtocolError(400, "expected a JSON body")
        try:
            return json.loads(self.body)
        except json.JSONDecodeError as exc:
            raise HttpProtocolError(400, f"invalid JSON body: {exc}") from None


@dataclass
class Response:
    """One HTTP response: a byte body or a chunked async stream.

    A response is its own awaitable: ``await response`` returns it
    without suspending, so a handler may answer now and a caller that
    wraps the handler in a coroutine still gets a ``Response``.
    """

    status: int = 200
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    #: When set, the response is sent with chunked transfer encoding,
    #: one chunk per yielded ``bytes``; ``body`` is ignored.
    stream: AsyncIterator[bytes] | None = None

    def __await__(self):
        return self
        yield  # unreachable: the ``yield`` makes this a generator

    @classmethod
    def json(cls, payload, status: int = 200, **headers: str) -> "Response":
        data = (json.dumps(payload, sort_keys=True) + "\n").encode()
        return cls(
            status=status,
            headers={"Content-Type": "application/json", **headers},
            body=data,
        )

    @classmethod
    def text(cls, text: str, status: int = 200, **headers: str) -> "Response":
        return cls(
            status=status,
            headers={"Content-Type": "text/plain; charset=utf-8", **headers},
            body=text.encode(),
        )

    @classmethod
    def error(cls, status: int, message: str, **extra) -> "Response":
        return cls.json({"error": message, **extra}, status=status)


#: One call per request; the result is awaited for its ``Response``.
Handler = Callable[[Request], Awaitable[Response]]


def _parse_head(head: bytes) -> tuple[Request, int]:
    """The request a complete head announces, and its body size."""
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpProtocolError(400, f"malformed request line: {lines[0]!r}")
    method, target, _version = parts
    split = urlsplit(target)
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpProtocolError(400, f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    size = 0
    length = headers.get("content-length")
    if length is not None:
        try:
            size = int(length)
        except ValueError:
            raise HttpProtocolError(400, f"bad Content-Length: {length!r}") from None
        if size < 0 or size > MAX_BODY_BYTES:
            raise HttpProtocolError(413, f"body of {size} bytes refused")
    elif headers.get("transfer-encoding"):
        raise HttpProtocolError(400, "chunked request bodies are not supported")
    request = Request(
        method=method.upper(),
        path=split.path,
        query=dict(parse_qsl(split.query)),
        headers=headers,
    )
    return request, size


def _head_bytes(response: Response, *, chunked: bool, keep_alive: bool) -> bytes:
    reason = _STATUS_TEXT.get(response.status, "Unknown")
    headers = dict(response.headers)
    if chunked:
        headers["Transfer-Encoding"] = "chunked"
    else:
        headers["Content-Length"] = str(len(response.body))
    headers["Connection"] = "keep-alive" if keep_alive else "close"
    lines = [f"HTTP/1.1 {response.status} {reason}"]
    lines.extend(f"{name}: {value}" for name, value in headers.items())
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


class _ServerConnection(asyncio.Protocol):
    """One keep-alive connection: frame complete requests out of the
    byte stream and answer them one at a time, in arrival order."""

    def __init__(self, server: "HttpServer") -> None:
        self._server = server
        self._transport: asyncio.Transport | None = None
        self._buffer = bytearray()
        #: Where the next search for the end of a head starts.
        self._scanned = 0
        #: ``(request, head end, body end)`` of a head whose body is
        #: still arriving.
        self._head: tuple[Request, int, int] | None = None
        #: What the request being answered waits on (a future, or the
        #: Task of a coroutine handler or a streamed body), else None.
        self._pending: asyncio.Future | None = None
        #: The Task writing a streamed body (also ``_pending`` then).
        self._streaming: asyncio.Task | None = None
        self._write_paused = False
        self._drain_waiter: asyncio.Future | None = None
        self._read_paused = False
        self._eof = False
        #: Set once the connection answers no more requests.
        self._closing = False

    # -- transport callbacks -------------------------------------------------

    def connection_made(self, transport) -> None:
        self._transport = transport
        self._server._connections.add(self)

    def connection_lost(self, exc) -> None:
        self._closing = True
        self._server._connections.discard(self)
        self._wake_drain()
        # A handler's future is left alone: a mutation the peer gave up
        # on is still committed, and its answer is dropped.  A streamed
        # body has nobody left to read it.
        if self._streaming is not None:
            self._streaming.cancel()

    def data_received(self, data: bytes) -> None:
        if self._closing:
            return
        self._buffer += data
        if self._pending is None and not self._write_paused:
            self._serve()
        elif len(self._buffer) > _READ_PAUSE_BYTES and not self._read_paused:
            self._read_paused = True
            self._transport.pause_reading()

    def eof_received(self) -> bool:
        self._eof = True
        if self._pending is None and not self._write_paused:
            self._serve()
        # Keep the write side open for the answers still owed; _serve
        # closes the connection once they are written.
        return True

    def pause_writing(self) -> None:
        self._write_paused = True

    def resume_writing(self) -> None:
        self._write_paused = False
        self._wake_drain()
        if self._pending is None:
            self._serve()

    # -- framing and answering -----------------------------------------------

    def _serve(self) -> None:
        """Answer every complete buffered request that can be answered
        now; stop at one that must wait, or at the end of the buffer."""
        while not self._closing:
            if self._pending is not None or self._write_paused:
                return
            try:
                request = self._frame()
            except HttpProtocolError as exc:
                # A request we cannot frame is answered, then hung up on.
                self._respond(Response.error(exc.status, exc.message), False)
                return
            if request is None:
                break
            self._dispatch(request)
        if self._closing:
            return
        if self._eof:
            if self._buffer:
                self._respond(Response.error(400, "truncated request"), False)
            else:
                self._close()
        elif self._read_paused:
            self._read_paused = False
            self._transport.resume_reading()

    def _frame(self) -> Request | None:
        """The next complete request off the buffer, or None."""
        buffer = self._buffer
        if self._head is None:
            end = buffer.find(b"\r\n\r\n", self._scanned)
            if end < 0:
                if len(buffer) > MAX_HEADER_BYTES:
                    raise HttpProtocolError(413, "request head too large")
                self._scanned = max(0, len(buffer) - 3)
                return None
            end += 4
            if end > MAX_HEADER_BYTES:
                raise HttpProtocolError(413, "request head too large")
            prof = self._server.prof
            if prof:
                prof.begin("serve.http-parse")
                try:
                    request, size = _parse_head(bytes(buffer[:end]))
                finally:
                    prof.end("serve.http-parse")
            else:
                request, size = _parse_head(bytes(buffer[:end]))
            self._head = (request, end, end + size)
        request, start, end = self._head
        if len(buffer) < end:
            return None
        request.body = bytes(buffer[start:end])
        del buffer[:end]
        self._head = None
        self._scanned = 0
        return request

    def _dispatch(self, request: Request) -> None:
        keep_alive = request.headers.get("connection", "").lower() != "close"
        try:
            answer = self._server.handler(request)
            if not isinstance(answer, Response) and not asyncio.isfuture(answer):
                answer = asyncio.ensure_future(answer)
        except HttpProtocolError as exc:
            answer = Response.error(exc.status, exc.message)
        except Exception as exc:  # noqa: BLE001 — the wire gets a 500
            answer = Response.error(500, f"{type(exc).__name__}: {exc}")
        if isinstance(answer, Response):
            self._respond(answer, keep_alive)
            return
        self._pending = answer
        answer.add_done_callback(functools.partial(self._answered, keep_alive))

    def _answered(self, keep_alive: bool, future: asyncio.Future) -> None:
        self._pending = None
        if self._closing:
            return
        try:
            response = future.result()
        except asyncio.CancelledError:
            self._close()
            return
        except HttpProtocolError as exc:
            response = Response.error(exc.status, exc.message)
        except Exception as exc:  # noqa: BLE001 — the wire gets a 500
            response = Response.error(500, f"{type(exc).__name__}: {exc}")
        self._respond(response, keep_alive)
        self._serve()

    def _respond(self, response: Response, keep_alive: bool) -> None:
        if response.stream is not None:
            task = asyncio.ensure_future(self._stream(response, keep_alive))
            self._pending = self._streaming = task
            task.add_done_callback(self._streamed)
            return
        # Head and body in one write: one send and one TCP segment, so
        # a keep-alive client wakes once per response.
        self._transport.write(
            _head_bytes(response, chunked=False, keep_alive=keep_alive)
            + response.body
        )
        if not keep_alive:
            self._close()

    async def _stream(self, response: Response, keep_alive: bool) -> bool:
        write = self._transport.write
        write(_head_bytes(response, chunked=True, keep_alive=keep_alive))
        await self._drain()
        async for chunk in response.stream:
            if not chunk:
                continue
            write(b"%x\r\n" % len(chunk) + chunk + b"\r\n")
            await self._drain()
        write(b"0\r\n\r\n")
        return keep_alive

    def _streamed(self, task: asyncio.Task) -> None:
        self._pending = self._streaming = None
        finished = not task.cancelled() and task.exception() is None
        if self._closing:
            return
        if not finished or not task.result():
            self._close()
            return
        self._serve()

    async def _drain(self) -> None:
        if self._closing:
            raise ConnectionResetError("connection lost")
        if self._write_paused:
            self._drain_waiter = asyncio.get_running_loop().create_future()
            await self._drain_waiter

    def _wake_drain(self) -> None:
        waiter, self._drain_waiter = self._drain_waiter, None
        if waiter is not None and not waiter.done():
            if self._closing:
                waiter.cancel()  # the stream ends with its connection
            else:
                waiter.set_result(None)

    def _close(self) -> None:
        self._closing = True
        self._buffer.clear()
        self._head = None
        self._transport.close()

    def shutdown(self) -> asyncio.Task | None:
        """Hang up now; returns the Task still running for this
        connection, cancelled, for the server to wait on."""
        pending = self._pending
        self._close()
        if isinstance(pending, asyncio.Task):
            pending.cancel()
            return pending
        return None


class HttpServer:
    """Serve ``handler`` over asyncio; one protocol object per connection."""

    def __init__(self, handler: Handler, host: str = "127.0.0.1", port: int = 0):
        self.handler = handler
        self.host = host
        self.port = port
        self._server: asyncio.base_events.Server | None = None
        self._connections: set[_ServerConnection] = set()
        #: Optional phase profiler (duck-typed, wired by the app layer).
        self.prof = None

    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(
            lambda: _ServerConnection(self), self.host, self.port
        )
        # Port 0 means "pick one"; report what the kernel chose.
        self.port = self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        """Stop accepting, hang up every connection, wait for its Tasks."""
        if self._server is not None:
            self._server.close()
        tasks = [
            task
            for task in (conn.shutdown() for conn in list(self._connections))
            if task is not None
        ]
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
