"""Live serving layer: an async control plane over the cluster broker.

``repro.serve`` is the repo's topmost layer — the one place where wall
clocks, sockets, and signals are architecture-legal.  It wraps a live
:class:`~repro.cluster.simulation.ClusterSimulation` in a small
stdlib-only HTTP service (``python -m repro serve``) and ships a seeded
open-loop load generator (``python -m repro loadgen``) whose exit code
gates zero 5xx / connection failures.

Nothing below this package may import it; the layering lint enforces
that edge.
"""

from repro.serve.app import ServeApp, serve_main
from repro.serve.engine import ServeEngine
from repro.serve.http import HttpServer, Request, Response
from repro.serve.loadgen import loadgen_main, plan_client, run_loadgen

__all__ = [
    "HttpServer",
    "Request",
    "Response",
    "ServeApp",
    "ServeEngine",
    "loadgen_main",
    "plan_client",
    "run_loadgen",
    "serve_main",
]
