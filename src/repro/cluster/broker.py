"""The cluster admission broker: placement, load feedback, migration.

The broker is the cluster's single admission surface.  Applications
submit a task (name + resource list); the broker ranks the nodes with a
pluggable :mod:`placement <repro.cluster.placement>` policy and walks
the ranking, sending an admission RPC to each node until one accepts.
A node's own :class:`~repro.core.admission.AdmissionController` remains
the sole authority on whether a task fits — the broker never
second-guesses a denial, it just tries the next candidate.  Before it
ranks, the broker asks that same rule about each node on *empty books*
(``AdmissionController(capacity).can_admit(min_rate)``) and drops the
nodes it refuses: a task whose minimum exceeds a node's whole
schedulable capacity can never be admitted there, so it is offered
only to the nodes that could hold it, and when none could it is denied
at once without an RPC.  On everything that could fit, the node
decides.

All broker <-> node traffic crosses the deterministic
:class:`~repro.sim.messages.MessageBus`, so requests and replies can be
delayed or dropped.  Every RPC therefore carries a request id: the
broker retries an unanswered request (same id — nodes deduplicate, so a
retry after a lost *reply* cannot double-admit), and after
``MAX_ATTEMPTS_PER_NODE`` transmissions moves to the next candidate,
first sending a cancel ``remove`` so a silently admitted ghost is
cleaned up.

**Load feedback (AIMD).**  Each node periodically reports a
:class:`~repro.cluster.node.NodeLoadReport`.  A healthy report
(headroom above the overload threshold, nothing degraded) *additively*
increases the node's placement weight; an overloaded report
*multiplicatively* decreases it — the classic AIMD rule from congestion
control, here steering the ``aimd`` placement policy toward nodes with
sustained headroom.

**Observed-load telemetry.**  When the simulation ships each node's
four-scalar load signal as ``telemetry`` messages
(``ClusterSimulation(telemetry=True)`` sets :attr:`ClusterBroker.telemetry_aimd`),
the AIMD decision is driven by the
:class:`~repro.cluster.telemetry.TelemetryAggregator` instead of
the nodes' self-reports: deadline-miss deltas and QOS fractions *as
measured by the metrics pipeline*.  Self-reports still refresh the
placement view's headroom — capacity is the node's own book-keeping —
but a node cannot talk its way into a healthy weight while its
telemetry shows misses.

**Migration.**  The per-node grant controller already resolves overload
by degrading QOS levels, and that is always the first resort.  Only
when a node reports overload for ``OVERLOAD_EPOCHS`` consecutive
reports does the broker attempt to move a task: it re-runs admission
for the victim's resource list on another node, and **only after** that
node confirms admission does it remove the task from the source — the
old grant stays live until the new home is guaranteed, so the paper's
never-terminated rule holds across nodes.  If no node can take the
victim, nothing moves and the task stays degraded: degrade is preferred
over migration, migration over denial.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import units
from repro.cluster.node import NodeLoadReport
from repro.cluster.placement import NodeView, PlacementPolicy
from repro.cluster.telemetry import TelemetryAggregator, TelemetrySnapshot
from repro.core.admission import AdmissionController
from repro.obs.events import MigrationEvent, RpcEvent
from repro.sim.messages import Envelope, MessageBus
from repro.sim.phase import phase
from repro.tasks.base import TaskDefinition

BROKER = "broker"


#: Resend an unanswered RPC after this long: 50 one-way latencies of
#: the default 100 us bus, so a retry means a lost message, not a slow
#: one.  The cadence is fixed — every attempt waits the same time.
RPC_TIMEOUT_TICKS = units.ms_to_ticks(5)
#: Transmissions per node (1 original + 2 retries) before giving up on
#: it.  At the fuzzer's worst drop rate (10 %) a round trip fails 19 %
#: of the time, three in a row 0.7 %.
MAX_ATTEMPTS_PER_NODE = 3
#: AIMD additive increase per healthy load report, multiplicative
#: decrease per overloaded one.  Vlahakis et al. (PAPERS.md) give
#: convergence for any step > 0 and factor in (0, 1), so neither is a
#: knob: halve on overload, recover a halving in ten healthy epochs.
AI_STEP = 0.05
MD_FACTOR = 0.5
#: Weight clamp: a node is never written off, nor favoured more than
#: 4x over a fresh one (weights start at 1.0).
WEIGHT_MIN = 0.05
WEIGHT_MAX = 4.0
#: Headroom below this counts as overloaded even with nothing degraded.
OVERLOAD_HEADROOM = 0.05
#: Consecutive overloaded reports before migration is considered —
#: degrading QOS on the node itself is always the first resort.
OVERLOAD_EPOCHS = 3
#: Epochs a migrated task is pinned before it may move again (longer
#: than the streak that moved it, so a task cannot ping-pong).
MIGRATION_COOLDOWN_EPOCHS = 5
#: Migration attempts started per epoch across the whole cluster: one
#: move changes two nodes' reports, which the next decision should see.
MAX_MIGRATIONS_PER_EPOCH = 1
#: A telemetry snapshot older than this (four 50 ms epochs) is too
#: stale to drive AIMD; the node's weight then stays where it is.
TELEMETRY_STALENESS_TICKS = units.ms_to_ticks(200)


@dataclass(frozen=True)
class BrokerConfig:
    """What callers choose about the broker; the rest are constants above."""

    #: Master switch for task migration.
    migrate: bool = True


@dataclass
class PlacedTask:
    """Broker-side record of one placed task."""

    name: str
    definition: TaskDefinition
    node: str
    min_rate: float
    max_rate: float
    migrations: int = 0


@dataclass
class BrokerStats:
    submitted: int = 0
    admitted: int = 0
    denied: int = 0
    retries: int = 0
    timeouts: int = 0
    withdrawals: int = 0
    migrations_started: int = 0
    migrations_completed: int = 0
    migrations_failed: int = 0


@dataclass
class _PendingRpc:
    request_id: str
    kind: str  # "admit" | "remove"
    purpose: str  # "place" | "migrate" | "withdraw" | "migrate-remove" | "cleanup"
    task: str
    node: str
    #: When the reply is overdue; set by every transmission.
    deadline: int = 0
    attempts: int = 1
    definition: TaskDefinition | None = None
    #: Remaining candidate nodes after the current one (admit only).
    candidates: list[str] = field(default_factory=list)
    #: Source node of an in-flight migration (purpose == "migrate").
    source: str | None = None
    #: Telemetry: root span of the whole place/migrate operation and the
    #: child span of the current node attempt (None when obs is off).
    op_span: object = None
    span: object = None


class ClusterBroker:
    """Places tasks on nodes and keeps the placement healthy."""

    def __init__(
        self,
        bus: MessageBus,
        nodes: dict[str, float],
        policy: PlacementPolicy,
        config: BrokerConfig | None = None,
        obs=None,
    ) -> None:
        """``nodes`` maps node name -> schedulable capacity (the initial
        headroom of an empty node).  ``obs`` is an optional
        :class:`repro.obs.session.ObsSession`: each place/migrate
        operation becomes one span tree (root span for the operation, a
        child span per node attempt) and retries/timeouts/migrations
        become structured events."""
        self.bus = bus
        self.policy = policy
        self.config = config or BrokerConfig()
        self.obs = obs
        self._obs_bus = obs.scoped(BROKER) if obs is not None else None
        self._spans = obs.spans if obs is not None else None
        self.views: dict[str, NodeView] = {
            name: NodeView(name=name, index=i, capacity=cap, headroom=cap)
            for i, (name, cap) in enumerate(nodes.items())
        }
        #: One empty admission controller per distinct node capacity:
        #: the node's own rule, asked whether the task could fit at all.
        self._empty_books: dict[float, AdmissionController] = {
            cap: AdmissionController(cap) for cap in nodes.values()
        }
        self.placements: dict[str, PlacedTask] = {}
        self.stats = BrokerStats()
        #: Tasks denied cluster-wide: (task name, last error).
        self.denials: list[tuple[str, str]] = []
        self._pending: dict[str, _PendingRpc] = {}
        #: Admit request ids we gave up on: request_id -> (task, node).
        self._abandoned: dict[str, tuple[str, str]] = {}
        self._overload_streak: dict[str, int] = {name: 0 for name in nodes}
        #: Load signals ingested from ``telemetry`` bus messages.
        self.telemetry = TelemetryAggregator()
        #: Optional phase profiler, wired by the cluster simulation.
        self.prof = None
        #: Drive AIMD weights from ingested telemetry (observed load)
        #: instead of the nodes' self-reports; set by the cluster
        #: simulation when it ships telemetry.
        self.telemetry_aimd = False
        self._migrating: set[str] = set()
        self._cooldown_until: dict[str, int] = {}
        self._epoch = 0
        self._seq = 0

    # -- public API ---------------------------------------------------------

    def submit(self, task: str, definition: TaskDefinition, now: int) -> None:
        """Place ``task`` somewhere in the cluster (asynchronously)."""
        self.stats.submitted += 1
        min_rate = definition.resource_list.minimum.rate
        could_hold = {
            cap for cap, books in self._empty_books.items() if books.can_admit(min_rate)
        }
        views = self._view_list()
        if len(could_hold) < len(self._empty_books):
            views = [v for v in views if v.capacity in could_hold]
        order = self.policy.order(views, min_rate)
        op_span = None
        if self._spans is not None:
            op_span = self._spans.start(
                f"place:{task}", now, task=task, candidates=len(order)
            )
        if not could_hold and self._empty_books:
            error = (
                f"minimum rate {min_rate:.3f} exceeds every node's schedulable "
                f"capacity ({max(self._empty_books):.3f})"
            )
            self._admit_failed(task, "place", error, now, op_span)
            return
        self._start_admit(task, definition, order, "place", None, now, op_span)

    def withdraw(self, task: str, now: int) -> None:
        """Remove a placed task from the cluster (task finished)."""
        placed = self.placements.pop(task, None)
        if placed is None:
            return
        self.stats.withdrawals += 1
        self.views[placed.node].headroom += placed.min_rate
        self._send_remove(task, placed.node, "withdraw", now)

    def node_of(self, task: str) -> str | None:
        placed = self.placements.get(task)
        return placed.node if placed else None

    def weights(self) -> dict[str, float]:
        return {name: view.weight for name, view in sorted(self.views.items())}

    def next_deadline(self) -> int | None:
        """Earliest pending-RPC timeout (a time source for the sim loop)."""
        if not self._pending:
            return None
        return min(p.deadline for p in self._pending.values())

    @property
    def idle(self) -> bool:
        """No RPC in flight (placements have all settled)."""
        return not self._pending

    # -- RPC plumbing -------------------------------------------------------

    def _request_id(self, kind: str, task: str) -> str:
        self._seq += 1
        return f"{kind}:{task}:{self._seq}"

    def _start_admit(
        self,
        task: str,
        definition: TaskDefinition,
        candidates: list[str],
        purpose: str,
        source: str | None,
        now: int,
        op_span: object = None,
    ) -> None:
        if not candidates:
            self._admit_failed(task, purpose, "no candidate nodes", now, op_span, source)
            return
        node, rest = candidates[0], candidates[1:]
        span = None
        if self._spans is not None:
            if op_span is None:
                op_span = self._spans.start(f"{purpose}:{task}", now, task=task)
            span = self._spans.start(f"admit:{node}", now, parent=op_span, task=task)
        pending = _PendingRpc(
            request_id=self._request_id("admit", task),
            kind="admit",
            purpose=purpose,
            task=task,
            node=node,
            definition=definition,
            candidates=rest,
            source=source,
            op_span=op_span,
            span=span,
        )
        self._register_and_transmit(pending, now)

    def _send_remove(self, task: str, node: str, purpose: str, now: int) -> None:
        pending = _PendingRpc(
            request_id=self._request_id("remove", task),
            kind="remove",
            purpose=purpose,
            task=task,
            node=node,
        )
        self._register_and_transmit(pending, now)

    def _register_and_transmit(self, pending: _PendingRpc, now: int) -> None:
        """Register the idempotency token, then send — exception-safely.

        ``MessageBus.send`` can raise (negative time, a poisoned
        payload, a shut-down transport); if it does, the just-registered
        token must not stay behind, or the request is never retried
        *and* never resolved — a stranded placement.
        """
        self._pending[pending.request_id] = pending
        try:
            self._transmit(pending, now)
        except BaseException:
            self._pending.pop(pending.request_id, None)
            raise

    def _transmit(self, pending: _PendingRpc, now: int) -> None:
        payload: dict = {"request_id": pending.request_id, "task": pending.task}
        if pending.kind == "admit":
            payload["definition"] = pending.definition
        trace = pending.span.context() if pending.span is not None else None
        self.bus.send(BROKER, pending.node, pending.kind, payload, now, trace=trace)
        pending.deadline = now + RPC_TIMEOUT_TICKS

    def check_timeouts(self, now: int) -> None:
        """Retry or fail over every RPC whose reply is overdue."""
        due = sorted(
            (p for p in self._pending.values() if p.deadline <= now),
            key=lambda p: (p.deadline, p.request_id),
        )
        for pending in due:
            if pending.request_id not in self._pending:
                continue
            if pending.attempts < MAX_ATTEMPTS_PER_NODE:
                pending.attempts += 1
                self.stats.retries += 1
                self._emit_rpc("retry", pending, now)
                self._transmit(pending, now)
                continue
            # The node never answered: give up on it.
            self.stats.timeouts += 1
            del self._pending[pending.request_id]
            self._emit_rpc("timeout", pending, now)
            if self._spans is not None and pending.span is not None:
                self._spans.finish(pending.span, now, status="timeout")
            if pending.kind == "admit":
                # The node may have admitted silently (reply lost every
                # time): remember the id for late replies and send a
                # cancel so a ghost admission is cleaned up.
                self._abandoned[pending.request_id] = (pending.task, pending.node)
                self._send_remove(pending.task, pending.node, "cleanup", now)
                self._advance_admit(pending, now)
            # An unanswered remove stays withdrawn from our books; the
            # node's dedup cache absorbs any late duplicate.

    def _advance_admit(self, pending: _PendingRpc, now: int) -> None:
        """Move an admission attempt to its next candidate node."""
        assert pending.definition is not None
        self._start_admit(
            pending.task,
            pending.definition,
            pending.candidates,
            pending.purpose,
            pending.source,
            now,
            pending.op_span,
        )

    def _admit_failed(
        self,
        task: str,
        purpose: str,
        error: str,
        now: int,
        op_span: object = None,
        source: str | None = None,
    ) -> None:
        if self._spans is not None and op_span is not None:
            self._spans.finish(op_span, now, status="failed", error=error)
        if purpose == "migrate":
            self.stats.migrations_failed += 1
            self._migrating.discard(task)
            self._cooldown_until[task] = self._epoch + MIGRATION_COOLDOWN_EPOCHS
            if self._obs_bus:
                self._obs_bus.emit(
                    MigrationEvent(
                        time=now,
                        task=task,
                        source=source or "",
                        outcome="failed",
                        reason=error,
                    )
                )
            return
        self.stats.denied += 1
        self.denials.append((task, error))

    def _emit_rpc(self, action: str, pending: _PendingRpc, now: int) -> None:
        if not self._obs_bus:
            return
        self._obs_bus.emit(
            RpcEvent(
                time=now,
                action=action,
                src=BROKER,
                dst=pending.node,
                kind=pending.kind,
                request_id=pending.request_id,
                attempt=pending.attempts,
                trace_id=pending.span.trace_id if pending.span is not None else "",
            )
        )

    # -- message handling ---------------------------------------------------

    @phase("broker.rpc")
    def on_message(self, envelope: Envelope, now: int) -> None:
        """Process one delivered envelope addressed to the broker."""
        if envelope.kind == "load-report":
            self._on_load_report(envelope.payload)
            return
        if envelope.kind == "telemetry":
            self._on_telemetry(envelope.payload, now)
            return
        payload: dict = envelope.payload
        request_id = payload["request_id"]
        pending = self._pending.pop(request_id, None)
        if pending is None:
            self._on_stale_reply(envelope, now)
            return
        if envelope.kind == "admit-reply":
            if self._spans is not None and pending.span is not None:
                self._spans.finish(
                    pending.span, now, status="ok" if payload["ok"] else "denied"
                )
            if payload["ok"]:
                self._admit_succeeded(pending, now)
            else:
                self._advance_admit(pending, now)
        # remove-reply: nothing further to do — the books were updated
        # when the remove was issued.

    def _admit_succeeded(self, pending: _PendingRpc, now: int) -> None:
        assert pending.definition is not None
        task, node = pending.task, pending.node
        resource_list = pending.definition.resource_list
        if pending.purpose == "migrate":
            placed = self.placements.get(task)
            if placed is None:
                # The task was withdrawn while migrating: undo the
                # admission we just won.
                self._send_remove(task, node, "cleanup", now)
                self._migrating.discard(task)
                if self._spans is not None and pending.op_span is not None:
                    self._spans.finish(pending.op_span, now, status="cancelled")
                return
            assert pending.source is not None
            placed.node = node
            placed.migrations += 1
            self.views[node].headroom -= placed.min_rate
            self.views[pending.source].headroom += placed.min_rate
            self.stats.migrations_completed += 1
            self._migrating.discard(task)
            self._cooldown_until[task] = self._epoch + MIGRATION_COOLDOWN_EPOCHS
            if self._obs_bus:
                self._obs_bus.emit(
                    MigrationEvent(
                        time=now,
                        task=task,
                        source=pending.source,
                        target=node,
                        outcome="completed",
                    )
                )
            if self._spans is not None and pending.op_span is not None:
                self._spans.finish(pending.op_span, now, status="completed", node=node)
            # Only now — with the new grant guaranteed — does the old
            # node release the task (never-terminated across nodes).
            self._send_remove(task, pending.source, "migrate-remove", now)
            return
        self.placements[task] = PlacedTask(
            name=task,
            definition=pending.definition,
            node=node,
            min_rate=resource_list.minimum.rate,
            max_rate=resource_list.maximum.rate,
        )
        self.views[node].headroom -= resource_list.minimum.rate
        self.stats.admitted += 1
        if self._spans is not None and pending.op_span is not None:
            self._spans.finish(pending.op_span, now, status="admitted", node=node)

    def _on_stale_reply(self, envelope: Envelope, now: int) -> None:
        """A reply for an RPC we already gave up on."""
        payload: dict = envelope.payload
        abandoned = self._abandoned.pop(payload.get("request_id", ""), None)
        if abandoned is None:
            return
        task, node = abandoned
        if envelope.kind == "admit-reply" and payload["ok"]:
            # It did admit after all; the cleanup remove issued at
            # abandonment (or this one, if that was lost) evicts it.
            if self.node_of(task) != node:
                self._send_remove(task, node, "cleanup", now)

    # -- load feedback (AIMD) ----------------------------------------------

    def _on_load_report(self, report: NodeLoadReport) -> None:
        view = self.views[report.node]
        view.report = report
        view.headroom = report.snapshot.headroom
        if self.telemetry_aimd:
            # Observed telemetry drives the weights; the self-report
            # only refreshes the placement view's capacity numbers.
            return
        overloaded = report.overloaded or report.snapshot.headroom < OVERLOAD_HEADROOM
        self._aimd_update(report.node, overloaded)

    @phase("broker.telemetry-merge")
    def _on_telemetry(self, snapshot: TelemetrySnapshot, now: int) -> None:
        """Ingest one node's load signal; maybe steer AIMD with it."""
        if not self.telemetry.ingest(snapshot):
            return  # stale or duplicate delivery
        if not self.telemetry_aimd:
            return
        load = self.telemetry.observed_load(
            snapshot.node, now=now, staleness=TELEMETRY_STALENESS_TICKS
        )
        if load is None:
            return
        overloaded = load.overloaded or load.headroom < OVERLOAD_HEADROOM
        self._aimd_update(snapshot.node, overloaded)

    def _aimd_update(self, node: str, overloaded: bool) -> None:
        view = self.views[node]
        if overloaded:
            view.weight = max(WEIGHT_MIN, view.weight * MD_FACTOR)
            self._overload_streak[node] += 1
        else:
            view.weight = min(WEIGHT_MAX, view.weight + AI_STEP)
            self._overload_streak[node] = 0

    # -- migration ----------------------------------------------------------

    @phase("broker.epoch")
    def on_epoch(self, now: int) -> None:
        """Per-epoch control decisions (currently: migration)."""
        self._epoch += 1
        if not self.config.migrate:
            return
        budget = MAX_MIGRATIONS_PER_EPOCH
        hot = sorted(
            (n for n, s in self._overload_streak.items() if s >= OVERLOAD_EPOCHS),
            key=lambda n: (-self._overload_streak[n], n),
        )
        for node in hot:
            if budget <= 0:
                break
            if self._try_migrate_from(node, now):
                budget -= 1

    def _try_migrate_from(self, source: str, now: int) -> bool:
        victims = sorted(
            (
                p
                for p in self.placements.values()
                if p.node == source
                and p.name not in self._migrating
                and self._cooldown_until.get(p.name, 0) <= self._epoch
            ),
            key=lambda p: (-p.min_rate, p.name),
        )
        others = [v for v in self._view_list() if v.name != source]
        for victim in victims:
            order = self.policy.order(others, victim.min_rate)
            viable = [n for n in order if self.views[n].headroom >= victim.min_rate]
            if not viable:
                continue  # nowhere to go: stay degraded rather than risk denial
            self.stats.migrations_started += 1
            self._migrating.add(victim.name)
            if self._obs_bus:
                self._obs_bus.emit(
                    MigrationEvent(
                        time=now,
                        task=victim.name,
                        source=source,
                        target=viable[0],
                        outcome="started",
                        reason=f"overload streak {self._overload_streak[source]}",
                    )
                )
            op_span = None
            if self._spans is not None:
                op_span = self._spans.start(
                    f"migrate:{victim.name}", now, task=victim.name, source=source
                )
            self._start_admit(
                victim.name, victim.definition, viable, "migrate", source, now, op_span
            )
            return True
        return False

    # -- helpers ------------------------------------------------------------

    def _view_list(self) -> list[NodeView]:
        return [self.views[name] for name in sorted(self.views)]
