"""The serving engine: a live cluster simulation behind a control plane.

``ServeEngine`` owns one :class:`~repro.cluster.simulation.ClusterSimulation`
(broker, nodes, lossless in-process bus) plus its
:class:`~repro.obs.session.ObsSession`, and exposes the synchronous
mutation surface the HTTP layer serializes onto a single writer:

* :meth:`commit` — fire a group of mutations at one tick, log them,
  settle once, resolve each; :meth:`submit`, :meth:`submit_batch` and
  :meth:`remove` are one-element commits through the same code;
* read-only views (:meth:`task`, :meth:`nodes`, :meth:`slo_status`).

Time discipline: the wall clock NEVER advances the simulation.  Every
mutation is applied at the simulation's current tick and then
:meth:`~repro.cluster.simulation.ClusterSimulation.settle` advances
simulated time just far enough for the admit/withdraw RPCs to resolve,
so the caller's answer ("admitted on node02" / "denied") is a settled
fact, not a guess.  Because each mutation is an atomic
apply-then-settle step, a concurrent client population produces
exactly the state a sequential replay of the same operations (in
arrival order) produces — byte-identical, which :meth:`state_digest`
makes checkable and the serialization property test enforces.
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterable

from repro import units
from repro.cluster.broker import BrokerConfig
from repro.cluster.simulation import ClusterSimulation
from repro.errors import ReproError, SimulationError
from repro.obs.analysis.slo import SloEngine, SloSpec
from repro.obs.session import ObsSession
from repro.workloads import single_entry_definition

#: The serving horizon: far beyond anything a service run settles
#: through (sim time only moves on mutations, ~tens of microseconds
#: each), but finite so node kernels keep a real bound.
DEFAULT_HORIZON_TICKS = units.sec_to_ticks(3600.0)


class ServeEngine:
    """A single-writer facade over one live cluster simulation."""

    def __init__(
        self,
        nodes: int = 4,
        seed: int = 0,
        policy: str = "first-fit",
        latency_us: float = 20.0,
        migrate: bool = False,
        slo_specs: Iterable[SloSpec] | None = None,
        prof=None,
    ) -> None:
        """``prof`` is an optional :class:`repro.obs.prof.PhaseProfiler`
        (a ``ProfSession``'s ``phases``): it is wired through the
        cluster, and the engine brackets its own commit path with
        ``serve.commit``."""
        self.session = ObsSession()
        self.sim = ClusterSimulation(
            node_count=nodes,
            seed=seed,
            policy=policy,
            horizon=DEFAULT_HORIZON_TICKS,
            latency_ticks=units.us_to_ticks(latency_us),
            broker_config=BrokerConfig(migrate=migrate),
            sanitize=False,
            obs=self.session,
        )
        self.prof = prof
        if prof is not None:
            self.sim.attach_prof(prof)
        self.slo: SloEngine | None = None
        if slo_specs is not None:
            self.slo = SloEngine(self.session.bus, slo_specs)
        #: task name -> lifecycle record (survives removal; a removed
        #: task reports status "removed", not a 404-shaped hole).
        self.tasks: dict[str, dict] = {}
        #: Applied mutations in arrival order, exactly as replayable.
        self.oplog: list[dict] = []
        self._denials_seen = 0
        self._nodes_cache: tuple[int, list[dict]] | None = None
        self.draining = False

    # -- mutations (call only from the single writer) -----------------------

    def apply(self, op: dict) -> dict:
        """Dispatch one oplog-shaped mutation; the writer's entry point."""
        kind = op.get("op")
        if kind in ("submit", "batch", "remove"):
            return self._commit([op])[0]
        if kind == "commit":
            self.commit(op["ops"])
            return {"status": "applied", "now": self.sim.now}
        raise SimulationError(f"unknown serve op {kind!r}")

    def commit(self, ops: list[dict]) -> list[dict]:
        """Group-commit: fire every mutation at the current tick, settle once.

        A withdraw only takes effect at the task's next period boundary,
        so settling it means sweeping up to a full period of cluster
        activity (every node's rollovers, timers and dispatches).  That
        sweep costs the same whether one withdraw resolves inside it or
        fifty, which is exactly what the single-writer queue exploits:
        drain whatever mutations are waiting and settle them together.
        The oplog records the group as one ``commit`` entry, so a replay
        reproduces the same batch boundaries — and therefore the same
        :meth:`state_digest` — as the live run.
        """
        prof = self.prof
        if prof:
            prof.begin("serve.commit")
            try:
                return self._commit(ops)
            finally:
                prof.end("serve.commit")
        return self._commit(ops)

    def _commit(self, ops: list[dict]) -> list[dict]:
        """Fire, log, settle, resolve — the one mutation path."""
        fired: list[dict] = []
        pending: list[tuple[int, str, object]] = []
        results: list[dict | None] = [None] * len(ops)
        for i, op in enumerate(ops):
            kind = op.get("op")
            if kind == "submit":
                record = self._start(op["spec"])
                if record["status"] == "rejected":
                    results[i] = record
                else:
                    pending.append((i, "submit", record))
                    fired.append({"op": "submit", "spec": dict(op["spec"])})
            elif kind == "batch":
                records = [self._start(spec) for spec in op["specs"]]
                pending.append((i, "batch", records))
                fired.append(
                    {"op": "batch", "specs": [dict(s) for s in op["specs"]]}
                )
            elif kind == "remove":
                task = op["task"]
                record = self.tasks.get(task)
                if record is None or record["status"] != "admitted":
                    status = "absent" if record is None else record["status"]
                    results[i] = {"task": task, "status": status, "removed": False}
                else:
                    self.sim.broker.withdraw(task, self.sim.now)
                    pending.append((i, "remove", record))
                    fired.append({"op": "remove", "task": task})
            else:
                results[i] = {
                    "status": "rejected",
                    "error": f"unknown serve op {kind!r}",
                }
        if fired:
            # A lone fired op (the only one, or the rest rejected
            # pre-RPC) is recorded bare, exactly as a replaying engine
            # would re-record it.
            self.oplog.append(
                fired[0] if len(fired) == 1 else {"op": "commit", "ops": fired}
            )
            self.sim.settle()
        for i, kind, record in pending:
            if kind == "submit":
                results[i] = self._resolve(record)
            elif kind == "batch":
                results[i] = {
                    "status": "applied",
                    "now": self.sim.now,
                    "tasks": [
                        r if r["status"] == "rejected" else self._resolve(r)
                        for r in record
                    ],
                }
            else:
                record["status"] = "removed"
                record["resolved_at"] = self.sim.now
                results[i] = {
                    "task": record["task"],
                    "status": "removed",
                    "removed": True,
                }
        return results

    def submit(self, spec: dict) -> dict:
        """Admit one task; returns its settled record."""
        return self._commit([{"op": "submit", "spec": spec}])[0]

    def submit_batch(self, specs: list[dict]) -> dict:
        """Admit a batch at one tick, settled together (one bus storm)."""
        return self._commit([{"op": "batch", "specs": specs}])[0]

    def remove(self, task: str) -> dict:
        """Withdraw a placed task; idempotent on unknown/removed names."""
        return self._commit([{"op": "remove", "task": task}])[0]

    def drain(self) -> dict:
        """Withdraw everything and settle; the graceful-shutdown hook."""
        self.draining = True
        placed = sorted(self.sim.broker.placements)
        ok = self.sim.drain()
        # The withdrawals bypass the oplog, so its generation cannot
        # tell the memoized fleet view that placement changed.
        self._nodes_cache = None
        for name in placed:
            record = self.tasks.get(name)
            if record is not None:
                record["status"] = "removed"
                record["resolved_at"] = self.sim.now
        return {
            "status": "drained" if ok else "stuck",
            "withdrawn": len(placed),
            "now": self.sim.now,
        }

    def _start(self, spec: dict) -> dict:
        """Validate a task spec and fire its admit RPC (not yet settled)."""
        try:
            name = str(spec["name"])
            period_ms = float(spec.get("period_ms", 30.0))
            rate = float(spec["rate"])
        except (KeyError, TypeError, ValueError) as exc:
            return {"status": "rejected", "error": f"bad task spec: {exc!r}"}
        if not name:
            return {"status": "rejected", "error": "task name must be non-empty"}
        existing = self.tasks.get(name)
        if existing is not None and existing["status"] in ("admitted", "pending"):
            return {
                "task": name,
                "status": "rejected",
                "error": f"task {name!r} is already placed",
            }
        if period_ms <= 0 or rate <= 0:
            return {
                "task": name,
                "status": "rejected",
                "error": "period_ms and rate must be positive",
            }
        try:
            definition = single_entry_definition(
                name, period_ms, rate, greedy=bool(spec.get("greedy", False))
            )
        except ReproError as exc:
            return {"task": name, "status": "rejected", "error": str(exc)}
        record = {
            "task": name,
            "status": "pending",
            "spec": {"name": name, "period_ms": period_ms, "rate": rate},
            "submitted_at": self.sim.now,
            "node": None,
            "error": "",
        }
        self.tasks[name] = record
        self.sim.broker.submit(name, definition, self.sim.now)
        return record

    def _resolve(self, record: dict) -> dict:
        """Read the settled outcome of one started admission."""
        name = record["task"]
        node = self.sim.broker.node_of(name)
        if node is not None:
            record["status"] = "admitted"
            record["node"] = node
        else:
            record["status"] = "denied"
            record["error"] = self._denial_reason(name)
        record["resolved_at"] = self.sim.now
        return record

    def _denial_reason(self, task: str) -> str:
        for name, error in reversed(self.sim.broker.denials):
            if name == task:
                return error
        return "denied"

    # -- read-only views ----------------------------------------------------

    def task(self, name: str) -> dict | None:
        return self.tasks.get(name)

    def nodes(self) -> list[dict]:
        # Placement only changes when a mutation lands, so the fleet
        # view is memoized per oplog generation (read-heavy workloads
        # hit /v1/nodes far more often than they mutate).
        generation = len(self.oplog)
        if self._nodes_cache is not None and self._nodes_cache[0] == generation:
            return self._nodes_cache[1]
        broker = self.sim.broker
        placed_per_node: dict[str, int] = {}
        for placed in broker.placements.values():
            placed_per_node[placed.node] = placed_per_node.get(placed.node, 0) + 1
        view_list = [
            {
                "name": name,
                "capacity": view.capacity,
                "headroom": view.headroom,
                "weight": view.weight,
                "tasks": placed_per_node.get(name, 0),
            }
            for name, view in sorted(broker.views.items())
        ]
        self._nodes_cache = (generation, view_list)
        return view_list

    def stats(self) -> dict:
        stats = self.sim.broker.stats
        return {
            "now": self.sim.now,
            "submitted": stats.submitted,
            "admitted": stats.admitted,
            "denied": stats.denied,
            "withdrawals": stats.withdrawals,
            "retries": stats.retries,
            "timeouts": stats.timeouts,
            "placements": len(self.sim.broker.placements),
            "operations": len(self.oplog),
        }

    def slo_status(self) -> dict:
        if self.slo is None:
            return {"enabled": False, "objectives": [], "alerts": []}
        violating = sorted(
            f"{slo}[{subject}]"
            for (slo, subject), bad in self.slo._violating.items()
            if bad
        )
        return {
            "enabled": True,
            "objectives": [
                {
                    "name": spec.name,
                    "metric": spec.metric,
                    "op": spec.op,
                    "threshold": spec.threshold,
                    "per": spec.per,
                }
                for spec in self.slo.specs
            ],
            "violating": violating,
            "alerts": [
                {
                    "time": alert.time,
                    "slo": alert.slo,
                    "subject": alert.subject,
                    "value": alert.value,
                    "threshold": alert.threshold,
                    "burn_rate": alert.burn_rate,
                }
                for alert in self.slo.alerts[-20:]
            ],
            "alert_count": len(self.slo.alerts) if self.slo else 0,
        }

    # -- equivalence ---------------------------------------------------------

    def state_digest(self) -> str:
        """SHA-256 over the canonical broker-visible state.

        Two engines that applied the same mutations in the same order
        — no matter how the *clients* interleaved — hash identically;
        the serialization property test is built on this.
        """
        broker = self.sim.broker
        state = {
            "now": self.sim.now,
            "placements": {
                name: placed.node
                for name, placed in sorted(broker.placements.items())
            },
            "denials": list(broker.denials),
            "stats": self.stats(),
            "tasks": {
                name: {
                    "status": record["status"],
                    "node": record["node"],
                    "error": record["error"],
                }
                for name, record in sorted(self.tasks.items())
            },
        }
        blob = json.dumps(state, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def replay(self, oplog: Iterable[dict]) -> None:
        """Apply a recorded oplog sequentially (fresh-engine replays)."""
        for op in oplog:
            self.apply(op)
