"""The column fold against the event-at-a-time fold it replaced.

``ObsSession.registry`` folds arena rows straight from their columns
through the metrics' keyed updates.  :func:`reference_fold` is the
session's former fold, kept here as the reference: one typed event at a
time through the keyword forms (``inc``/``set``/``observe``), which
check their labels and ``str`` each value on every call.  Streams cover
every event kind and each branch of the table; the registry is read at
random points of a ring-buffered bus that evicts between reads, and
every read must render byte-identical ``metrics.prom`` to the reference
fed exactly the rows that read could still see.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.events import (
    EVENT_TYPES,
    ActivationEvent,
    AdmissionEvent,
    GraceEvent,
    GrantChangeEvent,
    GrantRecomputeEvent,
    MigrationEvent,
    ObsEvent,
    PeriodCloseEvent,
    PolicyResolutionEvent,
    RpcEvent,
    SloAlertEvent,
    SwitchEvent,
    ViolationEvent,
)
from repro.obs.pipeline import ArenaBus
from repro.obs.prom import render_prometheus
from repro.obs.registry import MetricsRegistry
from repro.obs.session import ObsSession


def reference_fold(registry: MetricsRegistry, event: ObsEvent) -> None:
    """Fold one typed event into ``registry`` through the keyword forms."""
    m = registry.get
    kind = event.type
    if kind == "context-switch":
        m("repro_context_switches_total").inc(node=event.node, kind=event.kind)
        m("repro_context_switch_cost_ticks_total").inc(
            event.cost_ticks, node=event.node, kind=event.kind
        )
    elif kind == "admission":
        m("repro_admissions_total").inc(node=event.node, outcome=event.outcome)
        m("repro_headroom_ratio").set(event.headroom, node=event.node)
    elif kind == "grant-recompute":
        m("repro_grant_recomputes_total").inc(node=event.node)
        m("repro_grant_recompute_requests").observe(event.requests, node=event.node)
        m("repro_degraded_tasks").set(event.degraded, node=event.node)
        m("repro_qos_fraction").set(event.qos_fraction, node=event.node)
        m("repro_headroom_ratio").set(event.headroom, node=event.node)
        m("repro_policy_latency_ticks").observe(event.latency_ticks, node=event.node)
    elif kind == "policy-resolution":
        m("repro_policy_resolutions_total").inc(
            node=event.node, invented="true" if event.invented else "false"
        )
    elif kind == "period-close":
        m("repro_periods_closed_total").inc(node=event.node)
        if event.completion >= 0 and event.start >= 0:
            m("repro_grant_delivery_latency_ticks").observe(
                event.completion - event.start, node=event.node
            )
        if event.missed:
            m("repro_deadline_misses_total").inc(node=event.node)
        if event.voided:
            m("repro_voided_periods_total").inc(node=event.node)
    elif kind == "grace-period":
        m("repro_grace_periods_total").inc(
            node=event.node, honoured="true" if event.honoured else "false"
        )
    elif kind == "activation":
        m("repro_scheduler_activations_total").inc(node=event.node)
    elif kind == "rpc":
        m("repro_rpc_total").inc(action=event.action, kind=event.kind)
        if event.action == "retry":
            m("repro_rpc_retry_attempts").observe(event.attempt)
    elif kind == "migration":
        m("repro_migrations_total").inc(outcome=event.outcome)
    elif kind == "violation":
        m("repro_sanitizer_violations_total").inc(node=event.node, rule=event.rule)
    elif kind == "slo-alert":
        m("repro_slo_alerts_total").inc(slo=event.slo)


# Few nodes and few label values, so rows of one series interleave across
# kinds (headroom: admission vs grant-recompute) within one read.  Some
# label values are not strings: both folds must ``str`` every one.
times = st.integers(min_value=0, max_value=10**9)
nodes = st.sampled_from(["", "node00", "node01"])
labels = st.one_of(st.sampled_from(["a", "b", "retry", "send"]), st.integers(0, 2))
fractions = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
# Small values, negatives among them, so a period close often has one
# side unset (-1) and the other not: the fold skips it either way.
ticks = st.one_of(st.integers(min_value=-3, max_value=3), st.integers(-3, 3_000_000))
counts = st.integers(min_value=0, max_value=40)

KINDS = {
    "admission": st.builds(
        AdmissionEvent,
        time=times,
        node=nodes,
        outcome=st.sampled_from(["accepted", "denied"]),
        headroom=fractions,
    ),
    "policy-resolution": st.builds(
        PolicyResolutionEvent, time=times, node=nodes, invented=st.booleans()
    ),
    "grant-recompute": st.builds(
        GrantRecomputeEvent,
        time=times,
        node=nodes,
        requests=counts,
        degraded=counts,
        qos_fraction=fractions,
        headroom=fractions,
        latency_ticks=st.integers(min_value=0, max_value=3_000_000),
    ),
    "grant-change": st.builds(GrantChangeEvent, time=times, node=nodes),
    "context-switch": st.builds(
        SwitchEvent,
        time=times,
        node=nodes,
        kind=labels,
        cost_ticks=st.integers(min_value=0, max_value=500),
    ),
    "grace-period": st.builds(
        GraceEvent, time=times, node=nodes, honoured=st.booleans()
    ),
    "period-close": st.builds(
        PeriodCloseEvent,
        time=times,
        node=nodes,
        start=ticks,
        completion=ticks,
        missed=st.booleans(),
        voided=st.booleans(),
    ),
    "activation": st.builds(ActivationEvent, time=times, node=nodes, pending=counts),
    "rpc": st.builds(
        RpcEvent,
        time=times,
        node=nodes,
        action=st.sampled_from(["send", "receive", "drop", "retry", "timeout"]),
        kind=labels,
        attempt=st.integers(min_value=0, max_value=9),
    ),
    "migration": st.builds(
        MigrationEvent,
        time=times,
        node=nodes,
        outcome=st.one_of(st.sampled_from(["started", "completed", "failed"]), counts),
    ),
    "slo-alert": st.builds(SloAlertEvent, time=times, node=nodes, slo=labels),
    "violation": st.builds(ViolationEvent, time=times, node=nodes, rule=labels),
}

steps = st.lists(
    st.one_of(st.just("read"), st.one_of(*KINDS.values())), min_size=1, max_size=80
)


def test_streams_cover_every_event_kind():
    assert set(KINDS) == set(EVENT_TYPES)


class TestColumnFoldMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(steps, st.one_of(st.none(), st.integers(min_value=1, max_value=6)))
    def test_every_read_renders_the_reference_bytes(self, steps, capacity):
        session = ObsSession()
        session.bus = ArenaBus(capacity=capacity)
        reference = ObsSession().registry  # the same metrics, nothing folded
        emitted: list[ObsEvent] = []
        folded = 0  # emitted[:folded] are behind the previous read
        for step in steps + ["read"]:
            if step != "read":
                session.bus.emit(step)
                emitted.append(step)
                continue
            # A read sees the unread rows its node's ring still holds:
            # those with fewer than ``capacity`` later rows of that node.
            later: dict[str, int] = {}
            live = []
            for event in reversed(emitted[folded:]):
                seen = later.get(event.node, 0)
                later[event.node] = seen + 1
                live.append(capacity is None or seen < capacity)
            for event, keep in zip(emitted[folded:], reversed(live)):
                if keep:
                    reference_fold(reference, event)
            folded = len(emitted)
            assert render_prometheus(session.registry) == render_prometheus(reference)
