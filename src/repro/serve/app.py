"""The control-plane application: routes, the single writer, lifecycle.

``ServeApp`` glues the three serving pieces together:

* the :class:`~repro.serve.engine.ServeEngine` holding the live
  simulation — mutated ONLY by the single writer task, which drains a
  bounded mutation queue in strict arrival order (the serialization
  point that makes concurrent clients equivalent to a sequential
  replay);
* the :class:`~repro.serve.http.HttpServer` speaking the wire;
* per-endpoint request metrics (counts and wall-clock latency) folded
  into the engine's :class:`~repro.obs.session.ObsSession` registry so
  ``GET /metrics`` exposes the service beside the simulation.

Backpressure is explicit: when the mutation queue is full the request
is answered ``429 Too Many Requests`` with a ``Retry-After`` hint
instead of queueing unboundedly.  Shutdown is a drain, not a kill:
``SIGTERM`` (or ``POST /admin/drain``) flips readiness to 503, lets
queued mutations finish, withdraws every placement through the broker
(the never-terminated guarantee holds all the way down); ``repro
serve`` (:mod:`repro.cli`) then writes the run's artifacts.
"""

from __future__ import annotations

import asyncio
import time
import traceback

from repro.obs.log import event_to_json
from repro.serve.engine import ServeEngine
from repro.serve.http import HttpServer, Request, Response

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


class ServeApp:
    """Routes + single-writer mutation loop over one :class:`ServeEngine`."""

    def __init__(
        self,
        engine: ServeEngine,
        host: str = "127.0.0.1",
        port: int = 0,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
    ) -> None:
        self.engine = engine
        self.server = HttpServer(self._handle, host=host, port=port)
        self._ops: asyncio.Queue = asyncio.Queue(maxsize=queue_limit)
        self._writer_task: asyncio.Task | None = None
        self.ready = False
        self._drained = asyncio.Event()
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
        self._writer_task = asyncio.create_task(self._writer())
        await self.server.start()
        self.ready = True

    async def stop(self) -> None:
        """Drain, then tear the server down."""
        await self.drain()
        await self.server.close()
        if self._writer_task is not None:
            self._writer_task.cancel()
            try:
                await self._writer_task
            except asyncio.CancelledError:
                pass

    async def drain(self) -> dict:
        """Refuse new mutations, finish queued ones, withdraw the cluster."""
        if self._drained.is_set():
            return {"status": "drained", "withdrawn": 0, "now": self.engine.sim.now}
        self.ready = False
        self.engine.draining = True
        await self._ops.join()
        result = self.engine.drain()
        self._drained.set()
        return result

    # -- the single writer ---------------------------------------------------

    async def _writer(self) -> None:
        """Drain queued mutations in arrival order, group-committing them.

        Settling a withdraw costs up to a full period of cluster
        activity no matter how many mutations ride along, so the writer
        coalesces whatever is waiting (bounded by ``_MAX_COMMIT``) into
        one :meth:`~repro.serve.engine.ServeEngine.commit`.  Under light
        load the batch is one op and behaves exactly like the naive
        loop; under heavy load throughput scales with queue depth.
        """
        while True:
            batch = [await self._ops.get()]
            while len(batch) < _MAX_COMMIT:
                try:
                    batch.append(self._ops.get_nowait())
                except asyncio.QueueEmpty:
                    break
            self.m_queue_depth.set(self._ops.qsize())
            self.m_batch_size.observe(len(batch))
            try:
                results = self.engine.commit([op for op, _ in batch])
                for (_, future), result in zip(batch, results):
                    if not future.cancelled():
                        future.set_result(result)
            except Exception as exc:  # noqa: BLE001 — surfaces as a 500
                for _, future in batch:
                    if not future.cancelled():
                        future.set_exception(exc)
            finally:
                for _ in batch:
                    self._ops.task_done()

    async def _mutate(self, op: dict) -> Response:
        if self.engine.draining:
            return Response.error(503, "service is draining")
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        try:
            self._ops.put_nowait((op, future))
            self.m_queue_depth.set(self._ops.qsize())
        except asyncio.QueueFull:
            self.m_backpressure.inc()
            return Response.json(
                {"error": "mutation queue is full; retry shortly"},
                status=429,
                **{"Retry-After": "1"},
            )
        result = await future
        return self._mutation_response(op, result)

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

    async def _handle(self, request: Request) -> Response:
        start = time.perf_counter()
        try:
            route, response = await self._route(request)
        except Exception:  # noqa: BLE001 — keep serving, count the 500
            traceback.print_exc()
            route, response = "(error)", Response.error(
                500, "internal server error"
            )
        self.m_requests.inc(
            route=route, method=request.method, status=str(response.status)
        )
        self.m_latency.observe(time.perf_counter() - start, route=route)
        return response

    async def _route(self, request: Request) -> tuple[str, Response]:
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
            return "/v1/nodes", Response.json({"nodes": self.engine.nodes()})
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
                body = request.json()
                if isinstance(body, list):
                    op = {"op": "batch", "specs": body}
                elif isinstance(body, dict):
                    op = {"op": "submit", "spec": body}
                else:
                    return "/v1/tasks", Response.error(
                        400, "body must be a task spec or a list of specs"
                    )
                return "/v1/tasks", await self._mutate(op)
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
                return "/v1/tasks/{id}", await self._mutate(
                    {"op": "remove", "task": name}
                )
            return "/v1/tasks/{id}", Response.error(405, f"{method} not allowed")
        if path == "/admin/drain" and method == "POST":
            return "/admin/drain", Response.json(await self.drain())
        return "(unmatched)", Response.error(404, f"no route for {method} {path}")

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
