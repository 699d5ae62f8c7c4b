"""ServeApp over a real socket: routes, statuses, backpressure, drain."""

import asyncio
import json
from collections import deque

from repro.serve.app import ServeApp, _Answer
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

    def test_a_whale_is_denied_without_an_rpc(self):
        error = "minimum rate 0.990 exceeds every node's schedulable capacity (0.960)"

        async def scenario(app):
            sim = app.engine.sim
            sent = sim.bus.stats.sent
            status, body = await call(app, "POST", "/v1/tasks", spec("w", rate=0.99))
            assert (status, body["status"], body["error"]) == (200, "denied", error)
            assert sim.bus.stats.sent == sent
            assert sim.broker.denials[-1] == ("w", error)
            status, body = await call(app, "GET", "/v1/tasks/w")
            assert (status, body["status"], body["error"]) == (200, "denied", error)
            status, body = await call(app, "GET", "/v1/stats")
            assert (status, body["submitted"], body["denied"]) == (200, 1, 1)
            assert not [e for e in app.engine.session.events if e.type == "admission"]

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


def wire(method, path, body=None):
    """One request's bytes, as a keep-alive client sends them."""
    data = b"" if body is None else json.dumps(body).encode()
    return (
        f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
        f"Content-Length: {len(data)}\r\n\r\n".encode() + data
    )


def answers(transport):
    """``(status, JSON body)`` of each response written to ``transport``."""
    out = []
    for sent in transport.writes:
        head, _, body = sent.partition(b"\r\n\r\n")
        out.append((int(head.split(b" ", 2)[1]), json.loads(body)))
    return out


def committed(app):
    """The task names of each oplog entry, one list per commit."""
    return [
        [op["spec"]["name"] for op in entry.get("ops", [entry])]
        for entry in app.engine.oplog
    ]


class TestAnswersLeaveWithTheirCommit:
    """A group commit writes every answer of its group before control
    returns to the loop, and whatever those answers unblock on their
    connections is served in the same turn."""

    @staticmethod
    def app_with_spied_commit():
        """An unstarted app, a factory of spy connections to it, and
        the writes on every spy transport as each commit returned."""
        app = ServeApp(ServeEngine(nodes=2, seed=7, policy="first-fit"))
        after_commit = []
        transports = []
        commit = app._commit

        def spied():
            commit()
            after_commit.append([list(t.writes) for t in transports])

        app._commit = spied

        def connect(transport_type=SpyTransport):
            connection = _ServerConnection(app.server)
            transport = transport_type()
            connection.connection_made(transport)
            transports.append(transport)
            return connection, transport

        return app, connect, after_commit

    def test_the_group_is_on_the_wire_when_the_commit_returns(self):
        async def main():
            app, connect, after_commit = self.app_with_spied_commit()
            (one, t1), (two, t2) = connect(), connect()
            one.data_received(wire("POST", "/v1/tasks", spec("a")))
            two.data_received(wire("DELETE", "/v1/tasks/ghost"))
            assert t1.writes == t2.writes == []
            await asyncio.sleep(0)  # exactly one loop turn: the commit's
            return after_commit, t1, t2

        after_commit, t1, t2 = asyncio.run(main())
        (writes,) = after_commit
        assert [len(w) for w in writes] == [1, 1]
        assert [status for status, _ in answers(t1)] == [201]
        assert [status for status, _ in answers(t2)] == [404]

    def test_a_pipelined_read_sees_the_commit_in_the_same_turn(self):
        async def main():
            app, connect, after_commit = self.app_with_spied_commit()
            connection, transport = connect()
            connection.data_received(
                wire("POST", "/v1/tasks", spec("a")) + wire("GET", "/v1/tasks/a")
            )
            assert transport.writes == []  # the GET waits behind the POST
            await asyncio.sleep(0)
            return after_commit, transport

        after_commit, transport = asyncio.run(main())
        (written,) = after_commit[0]
        assert len(written) == 2
        (post_status, _), (get_status, task) = answers(transport)
        assert (post_status, get_status, task["status"]) == (201, 200, "admitted")

    def test_a_pipelined_write_is_committed_by_the_same_commit_call(self):
        async def main():
            app, connect, after_commit = self.app_with_spied_commit()
            groups = []
            engine_commit = app.engine.commit

            def commit(ops):
                groups.append([op["spec"]["name"] for op in ops])
                return engine_commit(ops)

            app.engine.commit = commit
            connection, transport = connect()
            connection.data_received(
                wire("POST", "/v1/tasks", spec("a"))
                + wire("POST", "/v1/tasks", spec("b"))
            )
            await asyncio.sleep(0)
            first = list(groups)
            # The answer to "a" unblocked "b", which scheduled a commit
            # of its own; the running one took "b" off the deque first.
            assert app._commit_scheduled
            await asyncio.sleep(0)
            return first, groups, after_commit, transport, app

        first, groups, after_commit, transport, app = asyncio.run(main())
        assert first == [["a"], ["b"]]
        assert groups == first  # the scheduled commit found nothing to do
        assert [len(writes[0]) for writes in after_commit] == [2, 2]
        assert [status for status, _ in answers(transport)] == [201, 201]
        assert committed(app) == [["a"], ["b"]]

    def test_a_pipelined_drain_reenters_the_commit_and_answers_each_op_once(self):
        async def main():
            app, connect, after_commit = self.app_with_spied_commit()
            (one, t1), (two, t2) = connect(), connect()
            # "x" and "a" form the group; answering "x" queues "y", and
            # answering "a" runs the drain, whose own commit takes "y".
            two.data_received(
                wire("POST", "/v1/tasks", spec("x"))
                + wire("POST", "/v1/tasks", spec("y"))
            )
            one.data_received(
                wire("POST", "/v1/tasks", spec("a")) + wire("POST", "/admin/drain")
            )
            await asyncio.sleep(0)
            await asyncio.sleep(0)
            return app, t1, t2

        app, t1, t2 = asyncio.run(main())
        assert [status for status, _ in answers(t2)] == [201, 201]
        (a_status, _), (drain_status, drained) = answers(t1)
        assert (a_status, drain_status) == (201, 200)
        assert (drained["status"], drained["withdrawn"]) == ("drained", 3)
        assert committed(app) == [["x", "a"], ["y"]]
        assert app._ops == deque()

    def test_a_client_gone_mid_commit_is_committed_and_its_answer_dropped(self):
        async def main():
            app, connect, after_commit = self.app_with_spied_commit()
            connection, transport = connect()
            engine_commit = app.engine.commit

            def commit(ops):
                connection.connection_lost(None)
                return engine_commit(ops)

            app.engine.commit = commit
            connection.data_received(wire("POST", "/v1/tasks", spec("a")))
            await asyncio.sleep(0)
            return app, transport

        app, transport = asyncio.run(main())
        assert sorted(app.engine.tasks) == ["a"]
        assert transport.writes == []
        counted = app.m_requests.value(route="/v1/tasks", method="POST", status="201")
        assert counted == 1

    def test_a_raising_answer_callback_leaves_the_rest_answered(self):
        class BrokenTransport(SpyTransport):
            def write(self, data):
                raise RuntimeError("socket on fire")

        async def main():
            loop = asyncio.get_running_loop()
            reported = []
            loop.set_exception_handler(lambda loop, context: reported.append(context))
            app, connect, after_commit = self.app_with_spied_commit()
            (broken, _), (fine, transport) = connect(BrokenTransport), connect()
            broken.data_received(wire("POST", "/v1/tasks", spec("a")))
            fine.data_received(
                wire("POST", "/v1/tasks", spec("b"))
                + wire("POST", "/v1/tasks", spec("c"))
            )
            await asyncio.sleep(0)
            fine.data_received(wire("DELETE", "/v1/tasks/a"))
            await asyncio.sleep(0)
            return app, transport, reported

        app, transport, reported = asyncio.run(main())
        (context,) = reported
        assert str(context["exception"]) == "socket on fire"
        assert [status for status, _ in answers(transport)] == [201, 201, 200]
        statuses = {name: record["status"] for name, record in app.engine.tasks.items()}
        assert statuses == {"a": "removed", "b": "admitted", "c": "admitted"}


class TestAnswer:
    """``_Answer`` runs its done callbacks inside ``set_result`` — except
    where a plain future's scheduling is the only safe choice."""

    def test_callbacks_run_in_order_inside_set_result(self):
        def boom(future):
            raise RuntimeError("boom")

        loop = asyncio.new_event_loop()
        try:
            reported = []
            loop.set_exception_handler(lambda loop, context: reported.append(context))
            answer, seen = _Answer(loop), []
            answer.add_done_callback(lambda f: seen.append(("first", f.result())))
            answer.add_done_callback(boom)
            answer.add_done_callback(lambda f: seen.append(("last", f.result())))
            answer.set_result(7)  # the loop never runs
        finally:
            loop.close()
        assert seen == [("first", 7), ("last", 7)]
        (context,) = reported
        assert str(context["exception"]) == "boom"

    def test_inside_a_task_the_callbacks_are_scheduled(self):
        async def main():
            answer, seen = _Answer(asyncio.get_running_loop()), []
            answer.add_done_callback(seen.append)
            answer.set_result(None)
            inline = list(seen)
            await asyncio.sleep(0)
            return inline, seen, answer

        inline, seen, answer = asyncio.run(main())
        assert inline == []
        assert seen == [answer]

    def test_a_task_awaiting_an_answer_can_be_cancelled(self):
        async def main():
            answer = _Answer(asyncio.get_running_loop())

            async def wait():
                return await answer

            waiter = asyncio.ensure_future(wait())
            await asyncio.sleep(0)
            waiter.cancel()
            done, _ = await asyncio.wait({waiter}, timeout=5)
            return done == {waiter}, waiter.cancelled(), answer.cancelled()

        assert asyncio.run(main()) == (True, True, True)
