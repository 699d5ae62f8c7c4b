"""A seeded open-loop load generator for the serving control plane.

The generator speaks the same minimal HTTP/1.1 dialect the server
does, over plain asyncio sockets — one keep-alive connection per
simulated client.  Everything about *what* is sent is derived from the
seed before the first byte goes out: each client gets a precomputed
request schedule (send offsets and request bodies), so two runs with
the same seed issue byte-identical request streams.  The cluster's
admission outcomes are order-independent by construction — normal
tasks are sized so the whole client population fits the rack, and
every 50th client is a "whale" whose rate exceeds a node's capacity —
so the outcome tally is seed-deterministic no matter how the network
interleaves the requests.  The *measured* section (RPS, latency
percentiles) is wall-clock and machine-dependent; it reports the
offered schedule being kept up with, not capacity — the capacity
number is ``serve_closed`` in ``benchmarks/e2e``.

Each client's cycle is submit → read back → withdraw → fleet view,
so the live task population stays bounded by the client count and the
broker sees steady admission *and* withdrawal churn, not a ramp.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import time
from dataclasses import dataclass, field

from repro.obs.analysis import percentile
from repro.sim.rng import RngRegistry

#: Clients whose index divides this are whales: tasks sized over a
#: node's capacity, denied deterministically regardless of timing.
WHALE_EVERY = 50

#: A normal loadgen task: ~1 scheduler tick per 2 ms period — small
#: enough that every client's task fits the rack simultaneously, and
#: short-period enough that a withdrawn task's period-boundary exit is
#: reaped promptly (the live thread population stays bounded).
NORMAL_RATE = 0.00002
NORMAL_PERIOD_MS = 2.0
#: Over every node's 0.96 schedulable capacity but still an expressible
#: resource list, so the denial comes from cluster admission control.
WHALE_RATE = 0.99

#: How often a client's cycle asks for the fleet view instead of
#: cycling its task (keeps a read-heavy component in the mix).
_CYCLE = ("submit", "get", "remove", "nodes")

_RETRY_LIMIT = 100


@dataclass
class PlannedRequest:
    """One scheduled request: when (relative seconds) and what."""

    at_s: float
    method: str
    path: str
    body: bytes = b""
    #: What must come back for a deterministic run ("" = don't check).
    expect: str = ""


@dataclass
class ClientResult:
    statuses: dict[str, int] = field(default_factory=dict)
    outcomes: dict[str, int] = field(default_factory=dict)
    latencies_s: list[float] = field(default_factory=list)
    failures: int = 0
    retries: int = 0


def plan_client(client: int, seed: int, duration_s: float, rps: float) -> list[PlannedRequest]:
    """The full request schedule for one client, derived from the seed."""
    rng = RngRegistry(seed).stream(f"loadgen.client.{client}")
    count = max(1, int(duration_s * rps))
    interval = 1.0 / rps
    whale = client % WHALE_EVERY == 0
    rate = WHALE_RATE if whale else NORMAL_RATE
    requests: list[PlannedRequest] = []
    offset = rng.random() * interval
    for step in range(count):
        kind = _CYCLE[step % len(_CYCLE)]
        task = f"lg-{client:05d}-{step // len(_CYCLE):04d}"
        at_s = offset + step * interval + (rng.random() - 0.5) * 0.2 * interval
        if kind == "submit":
            spec = {"name": task, "period_ms": NORMAL_PERIOD_MS, "rate": rate}
            requests.append(
                PlannedRequest(
                    at_s=at_s,
                    method="POST",
                    path="/v1/tasks",
                    body=json.dumps(spec, sort_keys=True).encode(),
                    expect="denied" if whale else "admitted",
                )
            )
        elif kind == "get":
            requests.append(
                PlannedRequest(at_s=at_s, method="GET", path=f"/v1/tasks/{task}")
            )
        elif kind == "remove":
            requests.append(
                PlannedRequest(
                    at_s=at_s,
                    method="DELETE",
                    path=f"/v1/tasks/{task}",
                    expect="denied" if whale else "removed",
                )
            )
        else:
            requests.append(PlannedRequest(at_s=at_s, method="GET", path="/v1/nodes"))
    return requests


def schedule_digest(plans: list[list[PlannedRequest]]) -> str:
    """SHA-256 over every planned request — the reproducibility receipt."""
    h = hashlib.sha256()
    for plan in plans:
        for req in plan:
            h.update(
                f"{req.at_s:.6f} {req.method} {req.path} ".encode() + req.body + b"\n"
            )
    return h.hexdigest()


# -- the raw-socket HTTP client ---------------------------------------------


class _Connection:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None

    async def _ensure(self) -> None:
        if self.writer is None or self.writer.is_closing():
            self.reader, self.writer = await asyncio.open_connection(
                self.host, self.port
            )

    async def request(self, planned: PlannedRequest) -> tuple[int, bytes]:
        await self._ensure()
        assert self.reader is not None and self.writer is not None
        head = (
            f"{planned.method} {planned.path} HTTP/1.1\r\n"
            f"Host: {self.host}\r\n"
            f"Content-Length: {len(planned.body)}\r\n"
            f"Content-Type: application/json\r\n\r\n"
        )
        self.writer.write(head.encode() + planned.body)
        await self.writer.drain()
        status_line = await self.reader.readline()
        parts = status_line.split(None, 2)
        if len(parts) < 2:
            raise ConnectionError(f"bad status line {status_line!r}")
        status = int(parts[1])
        length = 0
        close = False
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value.strip())
            elif name == "connection" and value.strip().lower() == "close":
                close = True
        body = await self.reader.readexactly(length) if length else b""
        if close:
            self.close()
        return status, body

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            self.writer = None
            self.reader = None


async def _run_client(
    host: str,
    port: int,
    plan: list[PlannedRequest],
    start_s: float,
    result: ClientResult,
) -> None:
    conn = _Connection(host, port)
    try:
        for planned in plan:
            delay = start_s + planned.at_s - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            for attempt in range(_RETRY_LIMIT):
                sent = time.monotonic()
                try:
                    status, body = await conn.request(planned)
                except (ConnectionError, OSError, asyncio.IncompleteReadError):
                    conn.close()
                    result.failures += 1
                    break
                latency = time.monotonic() - sent
                if status == 429:
                    result.retries += 1
                    await asyncio.sleep(0.01 * (attempt + 1))
                    continue
                result.latencies_s.append(latency)
                key = f"{status // 100}xx"
                result.statuses[key] = result.statuses.get(key, 0) + 1
                if planned.expect:
                    outcome = "?"
                    try:
                        outcome = str(json.loads(body).get("status", "?"))
                    except (json.JSONDecodeError, AttributeError):
                        pass
                    tag = f"{planned.method.lower()}:{outcome}"
                    result.outcomes[tag] = result.outcomes.get(tag, 0) + 1
                break
            else:
                result.failures += 1
    finally:
        conn.close()


async def run_loadgen(
    host: str,
    port: int,
    clients: int,
    duration_s: float,
    seed: int,
    rps_per_client: float = 4.0,
) -> dict:
    """Drive the service; return the full report payload."""
    plans = [
        plan_client(c, seed, duration_s, rps_per_client) for c in range(clients)
    ]
    digest = schedule_digest(plans)
    results = [ClientResult() for _ in range(clients)]
    started = time.monotonic()
    await asyncio.gather(
        *(
            _run_client(host, port, plan, started, result)
            for plan, result in zip(plans, results)
        )
    )
    wall_s = time.monotonic() - started

    statuses: dict[str, int] = {}
    outcomes: dict[str, int] = {}
    latencies: list[float] = []
    failures = sum(r.failures for r in results)
    retries = sum(r.retries for r in results)
    for r in results:
        latencies.extend(r.latencies_s)
        for key, n in r.statuses.items():
            statuses[key] = statuses.get(key, 0) + n
        for key, n in r.outcomes.items():
            outcomes[key] = outcomes.get(key, 0) + n
    completed = len(latencies)
    outcome_digest = hashlib.sha256(
        json.dumps(outcomes, sort_keys=True).encode()
    ).hexdigest()

    return {
        "deterministic": {
            "seed": seed,
            "clients": clients,
            "duration_s": duration_s,
            "rps_per_client": rps_per_client,
            "planned_requests": sum(len(p) for p in plans),
            "schedule_digest": digest,
            "outcomes": dict(sorted(outcomes.items())),
            "outcome_digest": outcome_digest,
        },
        "measured": {
            "wall_s": wall_s,
            "completed": completed,
            "failures": failures,
            "retries_429": retries,
            "rps": completed / wall_s if wall_s > 0 else 0.0,
            "statuses": dict(sorted(statuses.items())),
            "latency_s": {
                "p50": percentile(latencies, 50),
                "p95": percentile(latencies, 95),
                "p99": percentile(latencies, 99),
                "max": max(latencies, default=-1),
            },
        },
    }


def loadgen_main(args) -> int:
    """Entry point for ``python -m repro loadgen``."""
    report = asyncio.run(
        run_loadgen(
            host=args.host,
            port=args.port,
            clients=args.clients,
            duration_s=args.duration,
            seed=args.seed,
            rps_per_client=args.rps_per_client,
        )
    )
    rendered = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(rendered)
        print(f"wrote {args.out}")
    measured = report["measured"]
    if args.json:
        print(rendered, end="")
    else:
        latency = measured["latency_s"]
        print(
            f"loadgen: {measured['completed']} requests in "
            f"{measured['wall_s']:.2f}s = {measured['rps']:.0f} req/s, "
            f"p50 {latency['p50'] * 1e3:.2f}ms p95 {latency['p95'] * 1e3:.2f}ms "
            f"p99 {latency['p99'] * 1e3:.2f}ms, "
            f"statuses {measured['statuses']}, "
            f"{measured['failures']} failures, "
            f"{measured['retries_429']} backpressure retries"
        )
        print(
            f"deterministic: schedule {report['deterministic']['schedule_digest'][:16]}… "
            f"outcomes {report['deterministic']['outcome_digest'][:16]}…"
        )
    bad = measured["statuses"].get("5xx", 0) + measured["failures"]
    if bad:
        print(f"FAIL: {bad} failed or 5xx responses")
    return 1 if bad else 0
