"""The control-plane application: routes, the single writer, lifecycle.

``ServeApp`` glues the three serving pieces together:

* the :class:`~repro.serve.engine.ServeEngine` holding the live
  simulation — mutated ONLY by the group commit, a loop callback that
  applies the waiting mutations in strict arrival order (the
  serialization point that makes concurrent clients equivalent to a
  sequential replay);
* the :class:`~repro.serve.http.HttpServer` speaking the wire;
* per-endpoint request metrics (counts and wall-clock latency) folded
  into the engine's :class:`~repro.obs.session.ObsSession` registry so
  ``GET /metrics`` exposes the service beside the simulation.

The handler answers a read now, with a :class:`Response`, and a
mutation with an :class:`_Answer` the group commit resolves — no
request runs in a Task of its own, no Task sits between a mutation and
its commit, and every answer of a group is on the wire before the loop
takes new work.

Backpressure is explicit: when ``queue_limit`` mutations are waiting
the request is answered ``429 Too Many Requests`` with a
``Retry-After`` hint instead of queueing unboundedly.  Shutdown is a
drain, not a kill: ``SIGTERM`` (or ``POST /admin/drain``) flips
readiness to 503, commits the waiting mutations, withdraws every
placement through the broker (the never-terminated guarantee holds all
the way down); ``repro serve`` (:mod:`repro.cli`) then writes the
run's artifacts.
"""

from __future__ import annotations

import asyncio
import functools
import time
import traceback
from collections import deque

from repro.obs.log import event_to_json
from repro.serve.engine import ServeEngine
from repro.serve.http import HttpProtocolError, HttpServer, Request, Response

#: Mutations a client may queue before the service pushes back (429).
DEFAULT_QUEUE_LIMIT = 1024

#: Wall-seconds buckets for the request-latency histogram (serving is
#: the one layer where wall-clock readings are architecture-legal).
_LATENCY_BUCKETS = (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.1, 0.5, 2.0)

#: Events a slow ``/v1/events`` consumer may buffer before the stream
#: drops events for that consumer (never blocking the emitters).
_EVENT_STREAM_BUFFER = 4096

#: Most mutations one group-commit may coalesce (bounds writer stalls).
_MAX_COMMIT = 512

#: Group-commit batch-size buckets (powers of two up to ``_MAX_COMMIT``).
_BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0)


class _Answer(asyncio.Future):
    """The future a mutation is answered with: its done callbacks run
    inside ``set_result``, so the group commit writes each answer
    before control returns to the loop.

    A plain future hands its callbacks to ``call_soon``: the answer
    would wait behind every callback the loop queued in the commit's
    turn (the other connections' requests among them) plus one more
    poll.  A callback that raises goes to the loop's exception handler
    and the others still run.  While a Task runs (a drain awaited in a
    coroutine), or once cancelled, the callbacks are scheduled as
    usual: no Task is stepped inside another one.
    """

    __slots__ = ("_waiting",)

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        super().__init__(loop=loop)
        self._waiting: list = []

    def add_done_callback(self, fn, *, context=None) -> None:
        if self.done():
            super().add_done_callback(fn, context=context)
        else:
            self._waiting.append((fn, context))

    def remove_done_callback(self, fn) -> int:
        kept = [entry for entry in self._waiting if entry[0] != fn]
        removed = len(self._waiting) - len(kept)
        self._waiting = kept
        return removed + super().remove_done_callback(fn)

    def set_result(self, result) -> None:
        super().set_result(result)
        self._run_callbacks()

    def set_exception(self, exception) -> None:
        super().set_exception(exception)
        self._run_callbacks()

    def cancel(self, msg=None) -> bool:
        if not super().cancel(msg=msg):
            return False
        self._run_callbacks()
        return True

    def _run_callbacks(self) -> None:
        callbacks, self._waiting = self._waiting, []
        loop = self.get_loop()
        if self.cancelled() or asyncio.current_task(loop) is not None:
            for fn, context in callbacks:
                loop.call_soon(fn, self, context=context)
            return
        for fn, context in callbacks:
            try:
                if context is None:
                    fn(self)
                else:
                    context.run(fn, self)
            except (SystemExit, KeyboardInterrupt):
                raise
            except BaseException as exc:  # noqa: BLE001 — as asyncio's Handle does
                loop.call_exception_handler(
                    {
                        "message": f"Exception in answer callback {fn!r}",
                        "exception": exc,
                        "future": self,
                    }
                )


class ServeApp:
    """Routes + single-writer group commit over one :class:`ServeEngine`."""

    def __init__(
        self,
        engine: ServeEngine,
        host: str = "127.0.0.1",
        port: int = 0,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
    ) -> None:
        self.engine = engine
        self.server = HttpServer(self._handle, host=host, port=port)
        #: Mutations waiting for the group commit: ``(op, answer)`` in
        #: arrival order.
        self._ops: deque[tuple[dict, _Answer]] = deque()
        self._queue_limit = queue_limit
        self._commit_scheduled = False
        self.ready = False
        self._drained = False
        #: ``(fleet view, its encoded /v1/nodes body)``: the engine
        #: hands out one view list per fleet generation.
        self._nodes_body: tuple[list, bytes] | None = None
        registry = engine.session.registry
        self.m_requests = registry.counter(
            "repro_http_requests_total",
            "Control-plane requests by route, method, and status",
            ("route", "method", "status"),
        )
        self.m_latency = registry.histogram(
            "repro_http_request_latency_seconds",
            "Wall-clock request latency at the serving boundary",
            _LATENCY_BUCKETS,
            ("route",),
        )
        self.m_backpressure = registry.counter(
            "repro_http_backpressure_total",
            "Mutations refused with 429 because the op queue was full",
        )
        self.m_queue_depth = registry.gauge(
            "repro_http_op_queue_depth",
            "Mutations waiting in the single-writer queue",
        )
        self.m_batch_size = registry.histogram(
            "repro_http_commit_batch_size",
            "Mutations coalesced per group commit",
            _BATCH_BUCKETS,
        )
        # The serving boundary may import the profiler directly; the
        # HTTP parser's hook slot shares the engine's phase books.
        self.server.prof = engine.prof

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        await self.server.start()
        self.ready = True

    async def stop(self) -> None:
        """Drain, then tear the server down."""
        await self.drain()
        await self.server.close()

    async def drain(self) -> dict:
        """Refuse new mutations, finish queued ones, withdraw the cluster."""
        return self._drain()

    def _drain(self) -> dict:
        if self._drained:
            return {"status": "drained", "withdrawn": 0, "now": self.engine.sim.now}
        self.ready = False
        self.engine.draining = True
        self._commit()
        result = self.engine.drain()
        self._drained = True
        return result

    # -- the single writer ---------------------------------------------------

    def _commit(self) -> None:
        """Apply the waiting mutations in arrival order, group-committing them.

        Settling a withdraw costs up to a full period of cluster
        activity no matter how many mutations ride along, so the writer
        coalesces whatever is waiting (bounded by ``_MAX_COMMIT``) into
        one :meth:`~repro.serve.engine.ServeEngine.commit`.  Under light
        load the batch is one op and behaves exactly like the naive
        loop; under heavy load throughput scales with queue depth.

        Each :class:`_Answer` writes its response as it is resolved, so
        the group is answered before the loop runs again.  A request an
        answer unblocks (the next one pipelined on its connection) is
        served right there; a mutation among them joins the deque and
        is committed by this same loop.
        """
        self._commit_scheduled = False
        ops = self._ops
        while ops:
            batch = [ops.popleft() for _ in range(min(len(ops), _MAX_COMMIT))]
            self.m_queue_depth.set_key((), len(ops))
            self.m_batch_size.observe_key((), len(batch))
            try:
                results = self.engine.commit([op for op, _ in batch])
            except Exception:  # noqa: BLE001 — every op of the group gets a 500
                traceback.print_exc()
                failed = Response.error(500, "internal server error")
                for _, future in batch:
                    if not future.cancelled():
                        future.set_result(failed)
                continue
            for (op, future), result in zip(batch, results):
                if not future.cancelled():
                    future.set_result(self._mutation_response(op, result))

    def _mutate(self, op: dict) -> Response | _Answer:
        if self.engine.draining:
            return Response.error(503, "service is draining")
        if len(self._ops) >= self._queue_limit:
            self.m_backpressure.inc()
            return Response.json(
                {"error": "mutation queue is full; retry shortly"},
                status=429,
                **{"Retry-After": "1"},
            )
        loop = asyncio.get_running_loop()
        future = _Answer(loop)
        self._ops.append((op, future))
        self.m_queue_depth.set_key((), len(self._ops))
        if not self._commit_scheduled:
            # The first mutation of a loop turn schedules the commit;
            # the rest of the turn's arrivals ride in the same group.
            self._commit_scheduled = True
            loop.call_soon(self._commit)
        return future

    @staticmethod
    def _mutation_response(op: dict, result: dict) -> Response:
        if op["op"] == "submit":
            status = {
                "admitted": 201,
                "denied": 200,
                "rejected": 400,
            }.get(result["status"], 200)
            return Response.json(result, status=status)
        if op["op"] == "batch":
            return Response.json(result, status=200)
        # remove
        status = 200 if result.get("removed") else 404
        if result.get("status") == "removed" and not result.get("removed"):
            status = 200  # deleting an already-removed task is idempotent
        return Response.json(result, status=status)

    # -- routing -------------------------------------------------------------

    def _handle(self, request: Request) -> Response | asyncio.Future:
        """Route one request: a read is answered now, a mutation with the
        :class:`_Answer` its group commit resolves; either is counted
        once its answer is known."""
        start = time.perf_counter()
        try:
            route, answer = self._route(request)
        except Exception:  # noqa: BLE001 — keep serving, count the 500
            traceback.print_exc()
            route, answer = "(error)", Response.error(500, "internal server error")
        if isinstance(answer, Response):
            self._count(route, request.method, start, answer)
        else:
            answer.add_done_callback(
                functools.partial(self._counted, route, request.method, start)
            )
        return answer

    def _count(
        self, route: str, method: str, start: float, response: Response
    ) -> None:
        self.m_requests.inc_key((route, method, str(response.status)))
        self.m_latency.observe_key((route,), time.perf_counter() - start)

    def _counted(
        self, route: str, method: str, start: float, future: asyncio.Future
    ) -> None:
        if not future.cancelled():
            self._count(route, method, start, future.result())

    def _route(self, request: Request) -> tuple[str, Response | asyncio.Future]:
        """Dispatch; returns (route label, response) for the metrics."""
        method, path = request.method, request.path.rstrip("/") or "/"
        if path == "/healthz":
            return "/healthz", Response.text("ok\n")
        if path == "/readyz":
            if self.ready and not self.engine.draining:
                return "/readyz", Response.text("ready\n")
            return "/readyz", Response.error(503, "not ready")
        if path == "/metrics":
            return "/metrics", Response.text(self.engine.session.metrics_prom())
        if path == "/debug/prof":
            phases = self.engine.prof
            if phases is None:
                return "/debug/prof", Response.error(
                    404, "profiling is off (restart with --profile DIR)"
                )
            return "/debug/prof", Response.json(phases.snapshot())
        if path == "/v1/nodes" and method == "GET":
            return "/v1/nodes", self._nodes_response()
        if path == "/v1/slo" and method == "GET":
            return "/v1/slo", Response.json(self.engine.slo_status())
        if path == "/v1/stats" and method == "GET":
            return "/v1/stats", Response.json(self.engine.stats())
        if path == "/v1/state" and method == "GET":
            return "/v1/state", Response.json(
                {"digest": self.engine.state_digest(), "now": self.engine.sim.now}
            )
        if path == "/v1/events" and method == "GET":
            return "/v1/events", self._events_response(request)
        if path == "/v1/tasks":
            if method == "GET":
                return "/v1/tasks", Response.json(
                    {"tasks": sorted(self.engine.tasks)}
                )
            if method == "POST":
                try:
                    body = request.json()
                except HttpProtocolError as exc:
                    return "/v1/tasks", Response.error(exc.status, exc.message)
                if isinstance(body, list):
                    op = {"op": "batch", "specs": body}
                elif isinstance(body, dict):
                    op = {"op": "submit", "spec": body}
                else:
                    return "/v1/tasks", Response.error(
                        400, "body must be a task spec or a list of specs"
                    )
                return "/v1/tasks", self._mutate(op)
            return "/v1/tasks", Response.error(405, f"{method} not allowed")
        if path.startswith("/v1/tasks/"):
            name = path[len("/v1/tasks/"):]
            if method == "GET":
                record = self.engine.task(name)
                if record is None:
                    return "/v1/tasks/{id}", Response.error(
                        404, f"unknown task {name!r}"
                    )
                return "/v1/tasks/{id}", Response.json(record)
            if method == "DELETE":
                return "/v1/tasks/{id}", self._mutate(
                    {"op": "remove", "task": name}
                )
            return "/v1/tasks/{id}", Response.error(405, f"{method} not allowed")
        if path == "/admin/drain" and method == "POST":
            return "/admin/drain", Response.json(self._drain())
        return "(unmatched)", Response.error(404, f"no route for {method} {path}")

    def _nodes_response(self) -> Response:
        """``GET /v1/nodes``, encoded once per fleet view."""
        view = self.engine.nodes()
        if self._nodes_body is None or self._nodes_body[0] is not view:
            self._nodes_body = (view, Response.json({"nodes": view}).body)
        return Response(
            headers={"Content-Type": "application/json"}, body=self._nodes_body[1]
        )

    # -- event streaming -----------------------------------------------------

    def _events_response(self, request: Request) -> Response:
        try:
            limit = int(request.query.get("limit", "0"))
            timeout = float(request.query.get("timeout_s", "30"))
        except ValueError:
            return Response.error(400, "limit and timeout_s must be numeric")
        kinds = frozenset(
            k for k in request.query.get("kinds", "").split(",") if k
        )
        queue: asyncio.Queue = asyncio.Queue(maxsize=_EVENT_STREAM_BUFFER)
        bus = self.engine.session.bus

        def sink(event) -> None:
            if kinds and event.type not in kinds:
                return
            try:
                queue.put_nowait(event)
            except asyncio.QueueFull:
                pass  # a stalled consumer loses events, emitters never block

        async def stream():
            bus.subscribe(sink)
            sent = 0
            deadline = time.monotonic() + timeout
            try:
                while limit <= 0 or sent < limit:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return
                    try:
                        event = await asyncio.wait_for(queue.get(), remaining)
                    except asyncio.TimeoutError:
                        return
                    yield (event_to_json(event) + "\n").encode()
                    sent += 1
            finally:
                bus.unsubscribe(sink)

        return Response(
            status=200,
            headers={"Content-Type": "application/x-ndjson"},
            stream=stream(),
        )
