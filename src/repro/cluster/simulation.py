"""Deterministic lockstep simulation of a distributor cluster.

``ClusterSimulation`` owns N independent :class:`ClusterNode` kernels
(one full Resource Distributor each), the :class:`MessageBus` carrying
broker traffic, and the :class:`ClusterBroker`.  Nothing shares a
clock implicitly: the driver advances every node kernel in lockstep to
the next *global* interesting time —

* the next message delivery on the bus,
* the next external arrival/departure event,
* the next load-report epoch,
* the broker's earliest RPC timeout,
* the horizon —

then fires events, routes delivered envelopes, retries overdue RPCs,
and (on epoch boundaries) collects load reports and runs the broker's
migration pass.  Every queue drains in a deterministic order (nodes by
name, envelopes by send sequence, events by schedule order), so a
cluster run is exactly reproducible from its seed: same seed, same
message drops, same placements, byte-identical metrics.
"""

from __future__ import annotations

from typing import Callable

from repro import units
from repro.cluster.broker import BROKER, BrokerConfig, ClusterBroker
from repro.cluster.node import ClusterNode
from repro.cluster.placement import make_policy
from repro.cluster.telemetry import NodeTelemetry
from repro.config import MachineConfig, SimConfig
from repro.errors import SimulationError
from repro.sim.events import EventQueue
from repro.sim.messages import MessageBus
from repro.sim.rng import RngRegistry
from repro.tasks.base import TaskDefinition

#: Load-report / telemetry / chunk-shipping / migration cadence: 20
#: control decisions per simulated second, ten RPC timeouts apart.
EPOCH_TICKS = units.ms_to_ticks(50)


class ClusterSimulation:
    """N Resource Distributor nodes, one broker, one deterministic clock."""

    def __init__(
        self,
        node_count: int = 4,
        seed: int = 0,
        policy: str = "aimd",
        horizon: int | None = None,
        latency_ticks: int | None = None,
        jitter_ticks: int = 0,
        drop_rate: float = 0.0,
        machine: MachineConfig | None = None,
        broker_config: BrokerConfig | None = None,
        sanitize: bool = True,
        sanitize_strict: bool = True,
        obs=None,
        telemetry: bool = False,
        obs_pipeline: bool = False,
        max_chunk_events: int | None = None,
    ) -> None:
        """``obs`` is an optional :class:`repro.obs.session.ObsSession`:
        the bus, every node (scoped to its name), and the broker all
        report into it, and each node's scheduler trace is registered so
        the Perfetto export shows per-node scheduling tracks.

        ``telemetry`` (requires ``obs``) ships each node's four-scalar
        load signal (misses, QOS fraction, degraded tasks, headroom) to
        the broker as a ``telemetry`` message every epoch — over the
        same lossy bus as everything else — and switches the broker's
        AIMD weights to that observed load.

        ``obs_pipeline`` (requires ``obs``) ships
        each node's event arena every epoch as seq-numbered columnar
        chunks through a node -> rack -> root aggregation tree over a
        *dedicated*
        telemetry-plane bus with the same latency/jitter/drop model —
        the main run's artifacts are untouched, and the root accounts
        for every dropped or sampled-out row exactly.
        ``max_chunk_events`` bounds a chunk: larger cuts keep their
        head and tail halves and count the sampled-out middle."""
        if node_count < 1:
            raise SimulationError(f"node_count must be >= 1, got {node_count}")
        if node_count > 99:
            raise SimulationError(f"node_count must be <= 99, got {node_count}")
        self.seed = seed
        self.horizon = horizon if horizon is not None else units.sec_to_ticks(1.0)
        if latency_ticks is None:
            latency_ticks = units.us_to_ticks(100.0)
        self.machine = machine or MachineConfig()
        self.rngs = RngRegistry(seed)
        self.obs = obs
        self.bus = MessageBus(
            self.rngs.stream("cluster.bus"),
            latency_ticks=latency_ticks,
            jitter_ticks=jitter_ticks,
            drop_rate=drop_rate,
        )
        if obs is not None:
            self.bus.obs = obs.bus
        # Zero-padded names keep name order == index order past 9 nodes.
        self.nodes: dict[str, ClusterNode] = {}
        for i in range(node_count):
            name = f"node{i:02d}"
            self.nodes[name] = ClusterNode(
                name,
                machine=self.machine,
                sim=SimConfig(horizon=self.horizon, seed=seed + 7919 * (i + 1)),
                sanitize=sanitize,
                sanitize_strict=sanitize_strict,
                obs=obs.scoped(name) if obs is not None else None,
            )
            if obs is not None:
                obs.add_kernel(name, self.nodes[name].rd.kernel)
        self.telemetry: dict[str, NodeTelemetry] = {}
        if telemetry:
            if obs is None:
                raise SimulationError(
                    "telemetry=True needs an ObsSession (obs=...): the "
                    "snapshots are cut from its metrics registry"
                )
            self.telemetry = {
                name: NodeTelemetry(name, obs) for name in self.nodes
            }
        self.policy = make_policy(policy)
        self.broker = ClusterBroker(
            self.bus,
            {name: self.machine.schedulable_capacity for name in self.nodes},
            self.policy,
            broker_config,
            obs=obs,
        )
        self.broker.telemetry_aimd = telemetry
        self.pipeline = None
        if obs_pipeline:
            if obs is None:
                raise SimulationError(
                    "obs_pipeline=True needs an ObsSession (obs=...): the "
                    "shippers cut chunks from its per-node arenas"
                )
            from repro.cluster.obs_pipeline import PipelineShipping

            self.pipeline = PipelineShipping(
                obs,
                self.rngs,
                list(self.nodes),
                latency_ticks=latency_ticks,
                jitter_ticks=jitter_ticks,
                drop_rate=drop_rate,
                max_chunk_events=max_chunk_events,
            )
        self.events = EventQueue()
        self._now = 0
        self._next_epoch = EPOCH_TICKS
        #: Optional phase profiler; see :meth:`attach_prof`.
        self.prof = None

    def attach_prof(self, prof) -> None:
        """Wire a phase profiler (:class:`repro.obs.prof.PhaseProfiler`
        or a :class:`~repro.obs.prof.ProfSession`) through the whole
        cluster: the bus, the broker, and every node's distributor.

        Mirrors the obs wiring — the simulated layers only hold
        duck-typed ``prof`` slots, so an unprofiled run pays one falsy
        branch per hook site."""
        prof = getattr(prof, "phases", prof)
        self.prof = prof
        self.bus.prof = prof
        self.broker.prof = prof
        for node in self.nodes.values():
            node.rd.attach_prof(prof)

    # -- scripting the run ---------------------------------------------------

    @property
    def now(self) -> int:
        return self._now

    @property
    def all_sanitizers_ok(self) -> bool:
        """True when no node's sanitizer recorded a violation (a node
        running without a sanitizer counts as clean)."""
        return all(
            node.rd.sanitizer is None or node.rd.sanitizer.ok
            for node in self.nodes.values()
        )

    def at(self, time: int, action: Callable[[], None], label: str = "") -> None:
        """Schedule an external cluster-level event."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule an event at {time}, before now ({self._now})"
            )
        self.events.schedule(time, action, label)

    def submit_at(self, time: int, task: str, definition: TaskDefinition) -> None:
        """Schedule a task submission to the broker."""
        self.at(
            time,
            lambda: self.broker.submit(task, definition, self._now),
            f"submit {task}",
        )

    def withdraw_at(self, time: int, task: str) -> None:
        """Schedule a task departure."""
        self.at(time, lambda: self.broker.withdraw(task, self._now), f"withdraw {task}")

    # -- the lockstep loop ---------------------------------------------------

    def run_for(self, ticks: int) -> None:
        self.run_until(self._now + ticks)

    def run_until(self, horizon: int) -> None:
        """Advance the whole cluster to absolute time ``horizon``."""
        while self._now < horizon:
            target = self._next_time(horizon)
            for name in sorted(self.nodes):
                self.nodes[name].rd.run_until(target)
            self._now = target
            self._fire_events()
            self._route_messages()
            if self.pipeline is not None:
                self.pipeline.route(self._now)
            self.broker.check_timeouts(self._now)
            while self._next_epoch <= self._now:
                self._epoch()
                self._next_epoch += EPOCH_TICKS

    def settle(self, max_rounds: int = 10_000) -> bool:
        """Advance sim time until every in-flight broker interaction has
        resolved (no pending RPC, nothing on the bus).

        This is the serving layer's drain hook: a live front-end calls
        it after each mutation batch so admit/withdraw outcomes are
        decided before the caller is answered, and once more on
        shutdown so the books are consistent when the final artifacts
        are written.  Returns ``False`` when ``max_rounds`` advances
        were not enough (a cycle that keeps feeding the bus — with a
        reliable in-process bus this indicates a bug, and callers
        should surface it rather than spin forever).
        """
        prof = self.prof
        if prof:
            prof.begin("cluster.settle")
            try:
                return self._settle(max_rounds)
            finally:
                prof.end("cluster.settle")
        return self._settle(max_rounds)

    def _settle(self, max_rounds: int) -> bool:
        for _ in range(max_rounds):
            if self.broker.idle and len(self.bus) == 0:
                return True
            candidates = []
            bus_next = self.bus.next_time()
            if bus_next is not None:
                candidates.append(bus_next)
            deadline = self.broker.next_deadline()
            if deadline is not None:
                candidates.append(deadline)
            if not candidates:
                break
            self.run_until(max(self._now + 1, min(candidates)))
        return self.broker.idle and len(self.bus) == 0

    def drain(self, max_rounds: int = 10_000) -> bool:
        """Withdraw every placement, then :meth:`settle` the fallout.

        The graceful-shutdown hook: after a successful drain no task
        holds a grant anywhere in the cluster and no RPC is in flight.
        """
        for task in sorted(self.broker.placements):
            self.broker.withdraw(task, self._now)
        return self.settle(max_rounds=max_rounds)

    def _next_time(self, horizon: int) -> int:
        """The next global time anything cluster-level can happen."""
        candidates = [horizon, self._next_epoch]
        bus_next = self.bus.next_time()
        if bus_next is not None:
            candidates.append(bus_next)
        if self.pipeline is not None:
            pipeline_next = self.pipeline.next_time()
            if pipeline_next is not None:
                candidates.append(pipeline_next)
        event_next = self.events.next_time()
        if event_next is not None:
            candidates.append(event_next)
        deadline = self.broker.next_deadline()
        if deadline is not None:
            candidates.append(deadline)
        # Never move backwards, never overshoot the horizon.
        return min(horizon, max(self._now, min(candidates)))

    def _fire_events(self) -> None:
        for event in self.events.pop_due(self._now):
            event.action()

    def _route_messages(self) -> None:
        """Deliver every envelope due now, including zero-latency replies
        triggered by those deliveries (drained until a fixed point)."""
        while True:
            batch = self.bus.pop_due(self._now)
            if not batch:
                return
            for envelope in batch:
                if envelope.dst == BROKER:
                    self.broker.on_message(envelope, self._now)
                else:
                    node = self.nodes[envelope.dst]
                    kind, payload = node.handle(
                        envelope.kind, envelope.payload, self._now
                    )
                    # Replies echo the request's trace context, so the
                    # round trip lands in the originating span tree.
                    self.bus.send(
                        node.name, BROKER, kind, payload, self._now,
                        trace=envelope.trace,
                    )

    def _epoch(self) -> None:
        """Epoch boundary: nodes report load, the broker reacts."""
        for name in sorted(self.nodes):
            report = self.nodes[name].load_report(self._now)
            self.bus.send(name, BROKER, "load-report", report, self._now)
        for name in sorted(self.telemetry):
            snapshot = self.telemetry[name].snapshot(self._now)
            self.bus.send(name, BROKER, "telemetry", snapshot, self._now)
        if self.pipeline is not None:
            self.pipeline.on_epoch(self._now)
        self.broker.on_epoch(self._now)
