"""ServeApp over a real socket: routes, statuses, backpressure, drain."""

import asyncio
import json

from repro.serve.app import ServeApp
from repro.serve.engine import ServeEngine
from repro.serve.http import HttpServer, Request, Response, _ServerConnection
from repro.serve.loadgen import PlannedRequest, _Connection


def run_with_app(scenario, **app_kwargs):
    """Boot a ServeApp on an ephemeral port, run ``scenario(app)``, stop."""

    async def main():
        engine = ServeEngine(nodes=2, seed=7, policy="first-fit")
        app = ServeApp(engine, port=0, **app_kwargs)
        await app.start()
        try:
            return await scenario(app)
        finally:
            await app.stop()

    return asyncio.run(main())


async def call(app, method, path, body=None):
    """One request over a fresh keep-alive connection; parsed JSON body."""
    conn = _Connection("127.0.0.1", app.server.port)
    payload = b"" if body is None else json.dumps(body).encode()
    try:
        status, data = await conn.request(
            PlannedRequest(at_s=0.0, method=method, path=path, body=payload)
        )
    finally:
        conn.close()
    text = data.decode()
    parsed = json.loads(text) if text.lstrip().startswith(("{", "[")) else text
    return status, parsed


def spec(name, rate=0.1):
    return {"name": name, "rate": rate, "period_ms": 10.0}


def post_request(body):
    return Request(
        method="POST",
        path="/v1/tasks",
        query={},
        headers={},
        body=json.dumps(body).encode(),
    )


class TestRoutes:
    def test_health_and_readiness(self):
        async def scenario(app):
            assert await call(app, "GET", "/healthz") == (200, "ok\n")
            assert await call(app, "GET", "/readyz") == (200, "ready\n")

        run_with_app(scenario)

    def test_task_lifecycle_over_http(self):
        async def scenario(app):
            status, body = await call(app, "POST", "/v1/tasks", spec("a"))
            assert (status, body["status"], body["node"]) == (201, "admitted", "node00")

            status, body = await call(app, "GET", "/v1/tasks/a")
            assert status == 200 and body["status"] == "admitted"

            status, body = await call(app, "GET", "/v1/tasks")
            assert status == 200 and body["tasks"] == ["a"]

            status, body = await call(app, "DELETE", "/v1/tasks/a")
            assert status == 200 and body["removed"]

            # Deleting again is idempotent: 200, removed=False.
            status, body = await call(app, "DELETE", "/v1/tasks/a")
            assert status == 200 and not body["removed"]

        run_with_app(scenario)

    def test_denied_and_rejected_status_codes(self):
        async def scenario(app):
            status, body = await call(app, "POST", "/v1/tasks", spec("w", rate=0.99))
            assert status == 200 and body["status"] == "denied"
            status, body = await call(app, "POST", "/v1/tasks", {"rate": 0.1})
            assert status == 400 and body["status"] == "rejected"
            status, body = await call(app, "POST", "/v1/tasks", "nonsense")
            assert status == 400 and "error" in body

        run_with_app(scenario)

    def test_batch_body(self):
        async def scenario(app):
            status, body = await call(
                app, "POST", "/v1/tasks", [spec("a"), spec("w", rate=0.99)]
            )
            assert status == 200
            assert [t["status"] for t in body["tasks"]] == ["admitted", "denied"]

        run_with_app(scenario)

    def test_unknown_task_and_route_and_method(self):
        async def scenario(app):
            assert (await call(app, "GET", "/v1/tasks/ghost"))[0] == 404
            assert (await call(app, "DELETE", "/v1/tasks/ghost"))[0] == 404
            assert (await call(app, "GET", "/v1/warp"))[0] == 404
            assert (await call(app, "PUT", "/v1/tasks"))[0] == 405

        run_with_app(scenario)

    def test_read_views(self):
        async def scenario(app):
            await call(app, "POST", "/v1/tasks", spec("a"))
            status, body = await call(app, "GET", "/v1/nodes")
            assert status == 200 and len(body["nodes"]) == 2
            status, body = await call(app, "GET", "/v1/stats")
            assert status == 200 and body["admitted"] == 1
            status, body = await call(app, "GET", "/v1/state")
            assert status == 200 and body["digest"] == app.engine.state_digest()
            status, body = await call(app, "GET", "/v1/slo")
            assert status == 200 and body["enabled"] is False

        run_with_app(scenario)

    def test_nodes_body_is_fresh_after_each_mutation(self):
        # The body is encoded once per fleet view; a mutation or a drain
        # hands out a new view, so no read sees a stale one.
        async def scenario(app):
            counts = []
            for step in (None, spec("a"), spec("b")):
                if step is not None:
                    await call(app, "POST", "/v1/tasks", step)
                for _ in range(2):
                    _, body = await call(app, "GET", "/v1/nodes")
                    counts.append(sum(node["tasks"] for node in body["nodes"]))
            assert counts == [0, 0, 1, 1, 2, 2]

        run_with_app(scenario)

    def test_metrics_exposes_request_counters(self):
        async def scenario(app):
            await call(app, "POST", "/v1/tasks", spec("a"))
            status, text = await call(app, "GET", "/metrics")
            assert status == 200
            assert 'repro_http_requests_total{route="/v1/tasks"' in text
            assert "repro_http_request_latency_seconds_bucket" in text

        run_with_app(scenario)

    def test_metrics_scrapes_are_monotone_and_follow_the_simulation(self):
        """The HTTP counters and the sim-derived series share one
        registry: a scrape folds new events in without resetting what
        the serving layer counted itself."""

        def total(text, name):
            return sum(
                float(line.rsplit(" ", 1)[1])
                for line in text.splitlines()
                if line.startswith(name + "{")
            )

        async def scenario(app):
            await call(app, "POST", "/v1/tasks", spec("a"))
            _, first = await call(app, "GET", "/metrics")
            await call(app, "POST", "/v1/tasks", spec("b"))
            await call(app, "GET", "/v1/tasks/b")
            _, second = await call(app, "GET", "/metrics")
            for text in (first, second):
                assert total(text, "repro_http_requests_total") > 0
            assert total(second, "repro_http_requests_total") >= (
                total(first, "repro_http_requests_total") + 3
            )
            assert total(first, "repro_admissions_total") == 1
            assert total(second, "repro_admissions_total") == 2

        run_with_app(scenario)

    def test_events_stream_delivers_ndjson(self):
        async def scenario(app):
            port = app.server.port
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(
                b"GET /v1/events?limit=1&timeout_s=5 HTTP/1.1\r\n"
                b"Host: t\r\nContent-Length: 0\r\n\r\n"
            )
            await writer.drain()
            head = await reader.readuntil(b"\r\n\r\n")
            assert b"200" in head.split(b"\r\n", 1)[0]
            assert b"chunked" in head.lower()
            # Now cause an event; the subscribed stream must emit it.
            await call(app, "POST", "/v1/tasks", spec("a"))
            size_line = await asyncio.wait_for(reader.readline(), 5)
            size = int(size_line.strip(), 16)
            chunk = await reader.readexactly(size)
            event = json.loads(chunk)
            assert event["type"]
            writer.close()

        run_with_app(scenario)


class TestBackpressureAndDrain:
    def test_full_queue_answers_429(self):
        # Two mutations in one loop turn against a one-op queue: the
        # first waits for the group commit, the second is refused with
        # Retry-After, and the refusal leaves the first one's commit alone.
        async def main():
            engine = ServeEngine(nodes=2, seed=7)
            app = ServeApp(engine, port=0, queue_limit=1)
            first = app.server.handler(post_request(spec("a")))
            second = app.server.handler(post_request(spec("b")))
            assert second.status == 429
            assert second.headers["Retry-After"] == "1"
            assert app.m_backpressure.value() == 1
            assert (await first).status == 201
            assert sorted(engine.tasks) == ["a"]

        asyncio.run(main())

    def test_drain_refuses_new_mutations(self):
        async def scenario(app):
            await call(app, "POST", "/v1/tasks", spec("a"))
            status, body = await call(app, "GET", "/v1/nodes")
            assert [node["tasks"] for node in body["nodes"]] == [1, 0]
            status, body = await call(app, "POST", "/admin/drain")
            assert status == 200 and body["status"] == "drained"
            assert body["withdrawn"] == 1
            assert (await call(app, "GET", "/readyz"))[0] == 503
            assert (await call(app, "POST", "/v1/tasks", spec("b")))[0] == 503
            # Reads still work while draining, and see the withdrawal.
            assert (await call(app, "GET", "/v1/stats"))[0] == 200
            status, body = await call(app, "GET", "/v1/nodes")
            assert status == 200
            assert [node["tasks"] for node in body["nodes"]] == [0, 0]

        run_with_app(scenario)

    def test_handler_exception_becomes_counted_500(self):
        async def main():
            engine = ServeEngine(nodes=2, seed=7)
            app = ServeApp(engine, port=0)

            def boom(request):
                raise RuntimeError("kaboom")

            app._route = boom
            response = await app._handle(
                Request(method="GET", path="/x", query={}, headers={})
            )
            assert isinstance(response, Response)
            assert response.status == 500

        asyncio.run(main())


class TestWriterBatching:
    def test_concurrent_mutations_group_commit(self):
        async def scenario(app):
            results = await asyncio.gather(
                *(call(app, "POST", "/v1/tasks", spec(f"t{i}")) for i in range(8))
            )
            assert all(status == 201 for status, _ in results)
            # The writer coalesced at least some ops: fewer oplog
            # entries than mutations, and at least one commit group.
            ops = app.engine.oplog
            assert len(ops) <= 8
            assert app.engine.stats()["admitted"] == 8

        run_with_app(scenario)


class SpyTransport:
    """What a connection touches of its transport."""

    def __init__(self):
        self.writes = []
        self.closed = False

    def write(self, data):
        self.writes.append(bytes(data))

    def close(self):
        self.closed = True

    def pause_reading(self):
        pass

    def resume_reading(self):
        pass


def spy_connection(handler):
    """A server connection over a :class:`SpyTransport`."""
    connection = _ServerConnection(HttpServer(handler))
    transport = SpyTransport()
    connection.connection_made(transport)
    return connection, transport


class TestResponseWrites:
    def test_a_plain_response_is_one_write(self):
        response = Response.json({"status": "admitted"}, status=201)
        connection, transport = spy_connection(lambda request: response)
        connection.data_received(b"GET / HTTP/1.1\r\nHost: t\r\n\r\n")
        (sent,) = transport.writes  # head and body: one send, one segment
        head, _, body = sent.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 201")
        assert b"Content-Length: %d" % len(response.body) in head
        assert body == response.body
        assert not transport.closed  # keep-alive

    def test_a_streamed_response_keeps_one_write_per_chunk(self):
        async def chunks():
            yield b"one\n"
            yield b""
            yield b"two\n"

        async def main():
            connection, transport = spy_connection(
                lambda request: Response(stream=chunks())
            )
            connection.data_received(
                b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n"
            )
            await connection._streaming
            return transport

        transport = asyncio.run(main())
        assert transport.writes[1:] == [
            b"4\r\none\n\r\n",
            b"4\r\ntwo\n\r\n",
            b"0\r\n\r\n",
        ]
        assert b"chunked" in transport.writes[0]
        assert transport.closed
