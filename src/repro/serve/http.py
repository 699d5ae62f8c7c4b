"""A minimal asyncio HTTP/1.1 server — just enough for the control plane.

The serving layer cannot pull in a web framework (the repo is
stdlib-only), and it does not need one: the control plane speaks a
narrow dialect — JSON request bodies sized by ``Content-Length``,
JSON or text responses, keep-alive connections, and one streaming
endpoint (``/v1/events``) that uses chunked transfer encoding.  This
module implements exactly that dialect and nothing more: no TLS, no
pipelining of concurrent requests on one connection, no multipart.

Unlike every layer below it, this module lives in wall-clock land:
``asyncio`` timeouts and socket readiness are real time.  That is the
design, not an accident — the serving layer is the boundary where the
deterministic simulation meets live clients, and the ``determinism``
lint rule's scope table names only the simulated layers precisely so
this one can be honest about being a network service.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import AsyncIterator, Awaitable, Callable
from urllib.parse import parse_qsl, urlsplit

#: Parsing limits: a control-plane request is small; anything bigger
#: is a client bug and gets a 4xx rather than unbounded buffering.
MAX_HEADER_BYTES = 64 * 1024
MAX_BODY_BYTES = 4 * 1024 * 1024

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
    """One HTTP response: a byte body or a chunked async stream."""

    status: int = 200
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    #: When set, the response is sent with chunked transfer encoding,
    #: one chunk per yielded ``bytes``; ``body`` is ignored.
    stream: AsyncIterator[bytes] | None = None

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


Handler = Callable[[Request], Awaitable[Response]]


async def read_request(
    reader: asyncio.StreamReader, prof=None
) -> Request | None:
    """Parse one request off the wire; ``None`` on a clean EOF.

    ``prof`` is an optional phase profiler; the ``serve.http-parse``
    phase brackets the parse work only — never the wait for bytes.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # peer closed between requests: normal keep-alive end
        raise HttpProtocolError(400, "truncated request head") from None
    except asyncio.LimitOverrunError:
        raise HttpProtocolError(413, "request head too large") from None
    if prof:
        prof.begin("serve.http-parse")
        try:
            return await _parse_request(head, reader)
        finally:
            prof.end("serve.http-parse")
    return await _parse_request(head, reader)


async def _parse_request(
    head: bytes, reader: asyncio.StreamReader
) -> Request:
    if len(head) > MAX_HEADER_BYTES:
        raise HttpProtocolError(413, "request head too large")
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
    body = b""
    length = headers.get("content-length")
    if length is not None:
        try:
            size = int(length)
        except ValueError:
            raise HttpProtocolError(400, f"bad Content-Length: {length!r}") from None
        if size < 0 or size > MAX_BODY_BYTES:
            raise HttpProtocolError(413, f"body of {size} bytes refused")
        body = await reader.readexactly(size)
    elif headers.get("transfer-encoding"):
        raise HttpProtocolError(400, "chunked request bodies are not supported")
    return Request(
        method=method.upper(),
        path=split.path,
        query=dict(parse_qsl(split.query)),
        headers=headers,
        body=body,
    )


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


async def write_response(
    writer: asyncio.StreamWriter, response: Response, *, keep_alive: bool
) -> None:
    """Serialize one response; streams go out chunk by chunk."""
    if response.stream is None:
        # Head and body in one write: one send and one TCP segment, so
        # a keep-alive client wakes once per response.
        writer.write(
            _head_bytes(response, chunked=False, keep_alive=keep_alive)
            + response.body
        )
        await writer.drain()
        return
    writer.write(_head_bytes(response, chunked=True, keep_alive=keep_alive))
    await writer.drain()
    async for chunk in response.stream:
        if not chunk:
            continue
        writer.write(b"%x\r\n" % len(chunk) + chunk + b"\r\n")
        await writer.drain()
    writer.write(b"0\r\n\r\n")
    await writer.drain()


class HttpServer:
    """Serve ``handler`` over asyncio; one task per connection."""

    def __init__(self, handler: Handler, host: str = "127.0.0.1", port: int = 0):
        self.handler = handler
        self.host = host
        self.port = port
        self._server: asyncio.base_events.Server | None = None
        self._connections: set[asyncio.Task] = set()
        #: Optional phase profiler (duck-typed, wired by the app layer).
        self.prof = None

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port, limit=MAX_HEADER_BYTES
        )
        # Port 0 means "pick one"; report what the kernel chose.
        self.port = self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        """Stop accepting, then wait for in-flight connections to end."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        try:
            await self._serve_connection(reader, writer)
        except (asyncio.CancelledError, ConnectionError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            try:
                request = await read_request(reader, self.prof)
            except HttpProtocolError as exc:
                await write_response(
                    writer,
                    Response.error(exc.status, exc.message),
                    keep_alive=False,
                )
                return
            if request is None:
                return
            keep_alive = request.headers.get("connection", "").lower() != "close"
            try:
                response = await self.handler(request)
            except HttpProtocolError as exc:
                response = Response.error(exc.status, exc.message)
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # noqa: BLE001 — the wire gets a 500
                response = Response.error(500, f"{type(exc).__name__}: {exc}")
            await write_response(writer, response, keep_alive=keep_alive)
            if not keep_alive:
                return
