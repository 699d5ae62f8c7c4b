"""Hostile HTTP against the control plane's framer.

Each case sends bytes a well-behaved client would not, over a real
socket to a live app, and names the statuses it must get back, in
order.  After every case the service is still whole: a new
connection's ``GET /healthz`` answers 200, no response was a 5xx, and
``app.drain()`` ends ``drained``.  Slow-body timeouts are out of scope
(the server has no such knob).
"""

from __future__ import annotations

import asyncio
import json
import select
import socket
import struct

import pytest

from repro.serve.app import ServeApp
from repro.serve.engine import ServeEngine
from repro.serve.http import MAX_BODY_BYTES, MAX_HEADER_BYTES

from tests.serve.test_http import call, spec, spy_connection

TIMEOUT_S = 10.0


def post(body: bytes, extra: bytes = b"") -> bytes:
    return (
        b"POST /v1/tasks HTTP/1.1\r\nHost: t\r\n"
        b"Content-Length: %d\r\n" % len(body) + extra + b"\r\n" + body
    )


def head_with_length(length: bytes) -> bytes:
    return (
        b"POST /v1/tasks HTTP/1.1\r\nHost: t\r\nContent-Length: "
        + length
        + b"\r\n\r\n"
    )


SPEC_A = json.dumps(spec("a")).encode()

#: (id, segments sent, how the client ends, statuses expected in order,
#: the server hangs up after them).
CASES = [
    ("truncated-head-then-eof", [b"GET /healthz HTTP/1.1\r\nHost: t\r\n"], "eof",
     [400], True),
    ("10MiB-without-a-head-end",
     [b"GET /healthz HTTP/1.1\r\nX-Junk: " + b"a" * (10 * 1024 * 1024)], "none",
     [413], True),
    ("content-length-over-the-limit",
     [head_with_length(b"%d" % (MAX_BODY_BYTES + 1))], "none", [413], True),
    ("content-length-negative", [head_with_length(b"-1")], "none", [413], True),
    ("content-length-not-a-number", [head_with_length(b"ten")], "none",
     [400], True),
    ("transfer-encoding-chunked",
     [b"POST /v1/tasks HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n"
      b"5\r\nhello\r\n0\r\n\r\n"], "none", [400], True),
    ("malformed-request-line", [b"GARBAGE\r\n\r\n"], "none", [400], True),
    ("header-line-without-colon",
     [b"GET /healthz HTTP/1.1\r\nHost t\r\n\r\n"], "none", [400], True),
    ("body-that-is-not-json", [post(b"{nope")], "none", [400], False),
    ("two-requests-in-one-segment",
     [post(SPEC_A) + b"GET /v1/tasks/a HTTP/1.1\r\nHost: t\r\n\r\n"], "none",
     [201, 200], False),
    ("disconnect-while-the-post-is-queued", [post(SPEC_A)], "reset", [], True),
]


def read_response(stream) -> tuple[int, bytes] | None:
    """One response off a blocking socket file; None once it is closed."""
    line = stream.readline()
    if not line:
        return None
    status = int(line.split()[1])
    length = 0
    while True:
        header = stream.readline()
        if header in (b"\r\n", b""):
            break
        name, _, value = header.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    return status, stream.read(length)


def talk(port: int, segments: list[bytes], end: str, want: int, hangs_up: bool):
    """Send ``segments`` (stopping early once the server answers), end
    the conversation, and read up to ``want`` responses."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=TIMEOUT_S)
    with sock:
        try:
            for segment in segments:
                for start in range(0, len(segment), 64 * 1024):
                    sock.sendall(segment[start:start + 64 * 1024])
                    if select.select([sock], [], [], 0)[0]:
                        break  # the server answered (and is hanging up)
                else:
                    continue
                break
        except (BrokenPipeError, ConnectionResetError):
            pass  # it hung up on the rest; its answer is still readable
        if end == "reset":
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            return [], True
        if end == "eof":
            sock.shutdown(socket.SHUT_WR)
        responses = []
        with sock.makefile("rb") as stream:
            while len(responses) < want:
                response = read_response(stream)
                if response is None:
                    break
                responses.append(response)
            closed = False
            if hangs_up:
                try:
                    closed = stream.read(1) == b""
                except ConnectionResetError:
                    closed = True  # hung up with our bytes still unread
        return responses, closed


async def settle(app: ServeApp, queued: int) -> None:
    """Wait (bounded) until ``queued`` mutations have committed."""
    for _ in range(int(TIMEOUT_S / 0.01)):
        if len(app.engine.oplog) >= queued:
            return
        await asyncio.sleep(0.01)


@pytest.mark.parametrize(
    "name, segments, end, statuses, hangs_up", CASES, ids=[case[0] for case in CASES]
)
def test_hostile_bytes_get_their_answer_and_the_service_stays_whole(
    name, segments, end, statuses, hangs_up
):
    async def main():
        engine = ServeEngine(nodes=2, seed=7, policy="first-fit")
        app = ServeApp(engine, port=0)
        await app.start()
        try:
            responses, closed = await asyncio.to_thread(
                talk, app.server.port, segments, end, len(statuses), hangs_up
            )
            assert [status for status, _ in responses] == statuses
            assert all(status < 500 for status, _ in responses)
            assert closed == hangs_up
            if name == "two-requests-in-one-segment":
                # Answered in order: the read saw the committed POST.
                assert json.loads(responses[1][1])["status"] == "admitted"
            if name == "disconnect-while-the-post-is-queued":
                await settle(app, 1)
                assert app.engine.task("a")["status"] == "admitted"
                twin = ServeEngine(nodes=2, seed=7, policy="first-fit")
                twin.replay(app.engine.oplog)
                assert twin.state_digest() == app.engine.state_digest()
            assert await call(app, "GET", "/healthz") == (200, "ok\n")
            assert (await app.drain())["status"] == "drained"
        finally:
            await app.stop()

    asyncio.run(main())


def test_a_post_whose_client_left_before_its_commit_is_still_committed():
    """The peer hangs up in the same loop turn its POST arrived: the op
    is committed and its answer is dropped, never written."""

    async def main():
        engine = ServeEngine(nodes=2, seed=7, policy="first-fit")
        app = ServeApp(engine, port=0)
        connection, transport = spy_connection(app.server.handler)
        connection.data_received(post(SPEC_A))
        connection.connection_lost(ConnectionResetError())
        assert engine.oplog == []  # queued, not yet committed
        await asyncio.sleep(0)
        await asyncio.sleep(0)
        assert engine.task("a")["status"] == "admitted"
        assert transport.writes == []
        twin = ServeEngine(nodes=2, seed=7, policy="first-fit")
        twin.replay(engine.oplog)
        assert twin.state_digest() == engine.state_digest()
        assert (await app.drain())["status"] == "drained"

    asyncio.run(main())


def test_a_head_without_an_end_is_refused_at_the_limit():
    """10 MiB with no blank line: one 413 once the head limit is
    passed, then nothing more is buffered."""
    connection, transport = spy_connection(lambda request: None)
    chunk = b"a" * (64 * 1024)
    most = 0
    connection.data_received(b"GET / HTTP/1.1\r\nX-Junk: ")
    for _ in range(10 * 16):
        connection.data_received(chunk)
        most = max(most, len(connection._buffer))
    (sent,) = transport.writes
    assert sent.startswith(b"HTTP/1.1 413")
    assert transport.closed
    assert most <= MAX_HEADER_BYTES
    assert len(connection._buffer) == 0


def test_pipelined_requests_wait_for_the_one_being_answered():
    """A GET pipelined behind a queued POST is answered after it."""

    async def main():
        engine = ServeEngine(nodes=2, seed=7, policy="first-fit")
        app = ServeApp(engine, port=0)
        connection, transport = spy_connection(app.server.handler)
        connection.data_received(
            post(SPEC_A) + b"GET /v1/tasks/a HTTP/1.1\r\nHost: t\r\n\r\n"
        )
        assert transport.writes == []  # the POST waits for its commit
        for _ in range(3):
            await asyncio.sleep(0)
        first, second = transport.writes
        assert first.startswith(b"HTTP/1.1 201")
        assert second.startswith(b"HTTP/1.1 200")
        assert b'"status": "admitted"' in second
        await app.drain()

    asyncio.run(main())

