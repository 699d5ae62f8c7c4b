"""The server process of the ``serve_closed`` workload.

Builds exactly what ``python -m repro serve --nodes 16 --port 0 --seed S``
builds (a ``ServeEngine`` behind a ``ServeApp``), prints one JSON line
``{"port": N}`` once it accepts connections, serves until SIGTERM (or
stdin closes — the runner died), and then prints one JSON line with what
only this process can know: its peak RSS, its CPU seconds, the
cluster's delivered QOS, and — when ``--traced`` — the spans recorded
inside it.

Usage: serve_launcher.py SEED [--traced]
"""

from __future__ import annotations

import asyncio
import bisect
import json
import os
import resource
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")

NODES = 16
#: ``repro serve`` defaults (see ``repro.cli``): policy, bus latency.
POLICY = "aimd"
LATENCY_US = 20.0
WRITE_METHODS = ("POST", "DELETE")


def _traced_handler(handler, requests: list, clock):
    """Record each HTTP request as (method, start, end); async, so these
    spans live beside the tracer's stack, not on it."""

    async def traced(request):
        start = clock()
        try:
            return await handler(request)
        finally:
            requests.append((request.method, start, clock()))

    return traced


def _request_metrics(requests: list, spans: list[dict]) -> dict:
    """Seconds per request class, net of the engine spans they contain.

    A write request contains the one commit that carried its op (the
    commit is synchronous, so no other handler runs during it); what is
    left of the request's duration is its wait in the single-writer
    queue plus the handler's own work.
    """
    commits = sorted(
        (s["start"], s["end"]) for s in spans if s["name"] == "serve.engine:commit"
    )
    write_net: list[float] = []
    read_s = 0.0
    for method, start, end in requests:
        if method not in WRITE_METHODS:
            read_s += end - start
            continue
        inside = 0.0
        for c0, c1 in commits[bisect.bisect_left(commits, (start, start)):]:
            if c0 > end:
                break
            if c1 <= end:
                inside += c1 - c0
        write_net.append((end - start) - inside)
    write_net.sort()
    return {
        "requests": len(requests),
        "read_request_s": read_s,
        "write_net_s": sum(write_net),
        "queue_wait_p50_s": write_net[len(write_net) // 2] if write_net else 0.0,
    }


async def _serve(seed: int, tracer) -> dict:
    from repro.cluster.report import cluster_metrics
    from repro.serve.app import ServeApp
    from repro.serve.engine import ServeEngine

    engine = ServeEngine(
        nodes=NODES, seed=seed, policy=POLICY, latency_us=LATENCY_US, migrate=False
    )
    app = ServeApp(engine, host="127.0.0.1", port=0)
    requests: list = []
    if tracer is not None:
        app.server.handler = _traced_handler(
            app.server.handler, requests, tracer.clock
        )
    await app.start()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, stop.set)
    # The runner holds our stdin; EOF there means it is gone.
    loop.add_reader(sys.stdin.fileno(), lambda: sys.stdin.buffer.read(1) or stop.set())
    cpu_ready = time.process_time()
    print(json.dumps({"port": app.server.port}), flush=True)
    await stop.wait()
    loop.remove_reader(sys.stdin.fileno())
    busy_s = time.process_time() - cpu_ready
    report = {
        "busy_cpu_s": busy_s,
        "delivered_qos": cluster_metrics(engine.sim)["cluster"]["delivered_qos"],
        "stats": engine.stats(),
    }
    if tracer is not None:
        from workloads import cluster_counters, distributor_counters

        counters = distributor_counters(
            [node.rd for node in engine.sim.nodes.values()]
        )
        counters.update(cluster_counters(engine.sim))
        report["counters"] = counters
        report["totals"] = tracer.totals()
        report["sums"] = tracer.sums
        report["requests"] = _request_metrics(requests, tracer.spans)
        export = tracer.export()
        export["requests"] = [
            {"method": method, "start": start, "end": end}
            for method, start, end in requests
        ]
        report["trace"] = export
        from trace import root_and_self_seconds

        report["root_s"], report["self_s"] = root_and_self_seconds(tracer)
    await app.stop()
    return report


def main(argv: list[str]) -> int:
    seed = int(argv[1])
    sys.path.insert(0, SRC)
    tracer = None
    if "--traced" in argv[2:]:
        from trace import Tracer, install

        tracer = Tracer()
        install(tracer)
    report = asyncio.run(_serve(seed, tracer))
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"final": report}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
