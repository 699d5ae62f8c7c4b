"""Typed telemetry events and the bus that carries them.

Every event is a frozen dataclass with a stable ``type`` tag, a
``time`` in simulated ticks (never wall-clock), and a ``node`` field
("" for a single-machine run; the node name in a cluster).  Events are
plain data — no references to live scheduler objects — so a collected
event stream serializes deterministically and survives the run.

:class:`ObsBus` is the interface a hook site records through; its one
implementation is the columnar :class:`repro.obs.pipeline.arena.ArenaBus`
an :class:`~repro.obs.session.ObsSession` owns.  A run is observed by a
session or not at all: hook sites guard with ``if self.obs:``, which
on an attached bus (always truthy) makes no Python call and with no
bus (``None``) costs one attribute read and a falsy branch.
"""

from __future__ import annotations

import dataclasses
from abc import ABC, abstractmethod
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


class ObsBus(ABC):
    """The event-bus interface: subscriber fan-out plus the four
    recording entry points hook sites call.

    :class:`repro.obs.pipeline.arena.ArenaBus` is the one implementation
    — it records every row into columns and builds a typed event only
    for a subscriber — and an :class:`~repro.obs.session.ObsSession`
    owns one.  The names stay here as the interface the benchmark's
    tracer wraps.  There is no unsinked mode: a hook site's ``if
    self.obs:`` tells an attached bus (always truthy) from ``None``.
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

    @abstractmethod
    def emit(self, event: ObsEvent, node: str = "") -> None:
        """Record ``event``; ``node`` names where a node-less event
        happened (a node scope passes its own)."""

    @abstractmethod
    def emit_switch(
        self, time, from_thread, to_thread, kind, cost_ticks, node: str = ""
    ) -> None:
        """Record a :class:`SwitchEvent` from its fields (the hottest kind)."""

    @abstractmethod
    def emit_period_close(
        self, time, thread_id, period_index, start, completion, granted,
        delivered, missed, voided, node: str = "",
    ) -> None:
        """Record a :class:`PeriodCloseEvent` from its fields."""

    @abstractmethod
    def emit_activation(self, time, pending, node: str = "") -> None:
        """Record an :class:`ActivationEvent` from its fields."""
