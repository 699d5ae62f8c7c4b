"""Typed telemetry events and the bus that carries them.

Every event is a frozen dataclass with a stable ``type`` tag, a
``time`` in simulated ticks (never wall-clock), and a ``node`` field
("" for a single-machine run; the node name in a cluster).  Events are
plain data — no references to live scheduler objects — so a collected
event stream serializes deterministically and survives the run.

The :class:`ObsBus` is deliberately tiny: ``emit`` hands the event to
each subscriber in subscription order.  A bus with no subscribers is
*falsy*, and hot hook sites guard with ``if self.obs:``, so an
instrumented-but-unsinked system skips event construction entirely —
zero allocations — which keeps it within the benchmark's overhead
budget; with no bus attached at all (``obs is None`` at the hook site)
the cost is the same attribute read and falsy branch.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class ObsEvent:
    """Base record: what happened, when (sim ticks), and where."""

    time: int
    #: Node name in a cluster run; "" on a single machine.
    node: str = field(default="", kw_only=True)

    #: Stable wire tag; subclasses override.
    type = "event"


@dataclass(frozen=True)
class AdmissionEvent(ObsEvent):
    """The Resource Manager decided an admission request."""

    task: str = ""
    outcome: str = "accepted"  # accepted | denied
    thread_id: int = -1
    min_rate: float = 0.0
    committed: float = 0.0
    headroom: float = 0.0
    error: str = ""

    type = "admission"


@dataclass(frozen=True)
class PolicyResolutionEvent(ObsEvent):
    """The Policy Box resolved (or invented) a ranking."""

    task_count: int = 0
    invented: bool = False
    #: Cumulative lookups so far, so a stream shows invocation rate.
    lookups: int = 0

    type = "policy-resolution"


@dataclass(frozen=True)
class GrantRecomputeEvent(ObsEvent):
    """Grant control produced a new grant set."""

    requests: int = 0
    granted: int = 0
    degraded: int = 0
    passes: int = 0
    minimum_fallback: bool = False
    qos_fraction: float = 1.0
    headroom: float = 0.0
    #: Ticks the policy-box consultation was "charged" in simulated
    #: time: recomputation runs in the requesting application's context
    #: at one instant, so this is the recompute's span in sim ticks
    #: (zero unless a model charges for it).
    latency_ticks: int = 0

    type = "grant-recompute"


@dataclass(frozen=True)
class GrantChangeEvent(ObsEvent):
    """One thread's grant changed (first grant, change, or removal)."""

    thread_id: int = -1
    period: int = 0
    cpu_ticks: int = 0
    entry_index: int = -1
    reason: str = ""

    type = "grant-change"


@dataclass(frozen=True)
class SwitchEvent(ObsEvent):
    """A context switch, with its kind and sampled cost."""

    from_thread: int = -1
    to_thread: int = -1
    kind: str = "voluntary"  # SwitchKind.value
    cost_ticks: int = 0

    type = "context-switch"


@dataclass(frozen=True)
class GraceEvent(ObsEvent):
    """A controlled-preemption grace period was granted (section 5.6)."""

    thread_id: int = -1
    honoured: bool = True  # yielded in time vs. burned the grace period
    grace_ticks: int = 0

    type = "grace-period"


@dataclass(frozen=True)
class PeriodCloseEvent(ObsEvent):
    """A thread's period closed.

    One event per closed period (``time`` is the deadline).  ``start``
    is the period's opening tick and ``completion`` the tick at which
    the thread finished its period's work — the grant fully consumed or
    the task declared done early — or ``-1`` when the period ended with
    work outstanding.  ``completion - start`` is therefore the
    grant-delivery latency the analysis layer turns into p50/p95/p99
    tables; ``missed``/``voided`` mark the exceptional closes.
    """

    thread_id: int = -1
    period_index: int = -1
    start: int = -1
    completion: int = -1
    granted: int = 0
    delivered: int = 0
    missed: bool = False
    voided: bool = False

    type = "period-close"


@dataclass(frozen=True)
class ActivationEvent(ObsEvent):
    """The Scheduler's unallocated-time callback delivered new grants."""

    pending: int = 0

    type = "activation"


@dataclass(frozen=True)
class RpcEvent(ObsEvent):
    """One hop of broker <-> node traffic on the MessageBus.

    ``action`` is ``send``/``receive``/``drop`` at the bus,
    ``retry``/``timeout`` at the sender's RPC layer, and ``dedup`` at a
    receiver whose idempotency cache absorbed a duplicate request.
    ``request_id`` names the logical RPC so retries correlate;
    ``trace_id`` ties the hop into its admission/migration span tree.
    """

    action: str = "send"
    src: str = ""
    dst: str = ""
    kind: str = ""
    request_id: str = ""
    attempt: int = 0
    trace_id: str = ""

    type = "rpc"


@dataclass(frozen=True)
class MigrationEvent(ObsEvent):
    """The broker moved (or failed to move) a task between nodes."""

    task: str = ""
    source: str = ""
    target: str = ""
    outcome: str = "started"  # started | completed | failed
    reason: str = ""

    type = "migration"


@dataclass(frozen=True)
class SloAlertEvent(ObsEvent):
    """A rolling-window SLO evaluation found an objective out of bounds.

    Emitted by :class:`repro.obs.analysis.slo.SloEngine` back into the
    bus it watches, so alerts land in ``events.jsonl`` beside the events
    that caused them.  ``burn_rate`` expresses how fast the error budget
    is being consumed: 1.0 means exactly at the objective, higher means
    burning budget (capped, deterministic).
    """

    slo: str = ""
    metric: str = ""
    subject: str = ""
    value: float = 0.0
    threshold: float = 0.0
    op: str = "<="
    burn_rate: float = 0.0
    window_start: int = 0
    window_end: int = 0

    type = "slo-alert"


@dataclass(frozen=True)
class ViolationEvent(ObsEvent):
    """The runtime invariant sanitizer detected a broken guarantee."""

    rule: str = ""
    detail: str = ""
    severity: str = "error"

    type = "violation"


#: Wire tag -> event class, for documentation and decoding.
EVENT_TYPES: dict[str, type[ObsEvent]] = {
    cls.type: cls
    for cls in (
        ActivationEvent,
        AdmissionEvent,
        PolicyResolutionEvent,
        GrantRecomputeEvent,
        GrantChangeEvent,
        SwitchEvent,
        GraceEvent,
        PeriodCloseEvent,
        RpcEvent,
        MigrationEvent,
        SloAlertEvent,
        ViolationEvent,
    )
}

#: Wire tag -> field names in declaration order: the row layout of an
#: event arena (:mod:`repro.obs.pipeline.arena`).
FIELD_PLANS: dict[str, tuple[str, ...]] = {
    tag: tuple(f.name for f in dataclasses.fields(cls))
    for tag, cls in EVENT_TYPES.items()
}


class ObsBus:
    """Fan-out of events to subscribers, in subscription order.

    The ``emit_*`` fast paths carry the hottest event kinds as plain
    scalars.  Here they just construct the typed event and ``emit`` it
    (behavior-identical to the eager call sites they replaced), but a
    columnar bus (:class:`repro.obs.pipeline.arena.ArenaBus`) overrides
    them to append straight into struct-of-arrays storage — the hook
    site stays one guarded call either way, and only the bus decides
    whether an object is ever allocated.
    """

    def __init__(self) -> None:
        self._subscribers: list[Callable[[ObsEvent], None]] = []

    def subscribe(self, sink: Callable[[ObsEvent], None]) -> None:
        self._subscribers.append(sink)

    def unsubscribe(self, sink: Callable[[ObsEvent], None]) -> None:
        """Detach ``sink``; unknown sinks are ignored (idempotent).

        Live consumers (the serving layer's ``/v1/events`` stream)
        attach per-client sinks and must detach them on disconnect, or
        a long-lived session would accumulate dead subscribers.
        """
        try:
            self._subscribers.remove(sink)
        except ValueError:
            pass

    def __bool__(self) -> bool:
        """True when at least one subscriber is attached.

        Emission sites on hot paths guard with ``if self.obs:`` instead
        of ``is not None`` so an instrumented-but-unsinked run skips
        event *construction*, not just delivery — zero allocations when
        nobody is listening.
        """
        return bool(self._subscribers)

    def emit(self, event: ObsEvent, node: str = "") -> None:
        """Hand ``event`` to every subscriber; ``node`` names where a
        node-less event happened (a node scope passes its own)."""
        if not self._subscribers:
            return
        if node and not event.node:
            event = dataclasses.replace(event, node=node)
        for sink in self._subscribers:
            sink(event)

    # -- typed fast paths (hot emission sites) -----------------------------

    def emit_switch(
        self,
        time: int,
        from_thread: int,
        to_thread: int,
        kind: str,
        cost_ticks: int,
        node: str = "",
    ) -> None:
        """Fast path for :class:`SwitchEvent` (the hottest kind)."""
        if self._subscribers:
            self.emit(
                SwitchEvent(
                    time=time,
                    from_thread=from_thread,
                    to_thread=to_thread,
                    kind=kind,
                    cost_ticks=cost_ticks,
                    node=node,
                )
            )

    def emit_period_close(
        self,
        time: int,
        thread_id: int,
        period_index: int,
        start: int,
        completion: int,
        granted: int,
        delivered: int,
        missed: bool,
        voided: bool,
        node: str = "",
    ) -> None:
        """Fast path for :class:`PeriodCloseEvent`."""
        if self._subscribers:
            self.emit(
                PeriodCloseEvent(
                    time=time,
                    thread_id=thread_id,
                    period_index=period_index,
                    start=start,
                    completion=completion,
                    granted=granted,
                    delivered=delivered,
                    missed=missed,
                    voided=voided,
                    node=node,
                )
            )

    def emit_activation(self, time: int, pending: int, node: str = "") -> None:
        """Fast path for :class:`ActivationEvent`."""
        if self._subscribers:
            self.emit(ActivationEvent(time=time, pending=pending, node=node))

    def emit_rpc(
        self,
        time: int,
        action: str,
        src: str,
        dst: str,
        kind: str,
        request_id: str,
        trace_id: str,
    ) -> None:
        """Fast path for a bus hop's :class:`RpcEvent` (no node, ``attempt`` 0)."""
        if self._subscribers:
            self.emit(
                RpcEvent(
                    time=time,
                    action=action,
                    src=src,
                    dst=dst,
                    kind=kind,
                    request_id=request_id,
                    trace_id=trace_id,
                )
            )
