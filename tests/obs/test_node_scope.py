"""Writing through a node scope is writing the typed event (hypothesis).

``ObsSession.scoped(node)`` records through the node's row writers:
``emit_switch`` / ``emit_period_close`` / ``emit_activation`` append
their scalars straight into the columns, a bus hop
(``ArenaBus.emit_rpc``) does the same for the node-less ``rpc`` row, and
every other kind goes through the scope's generic ``emit``.  The
reference is the plainest path there is: ``ArenaBus.emit(typed event,
node=)`` on a second bus.  Streams cover every event kind, a ring of
2–8 rows or none, chunk cuts at drawn points with drawn head/tail
sampling, and a subscriber attached partway through; both buses must
hold the same columns, orders, materialized stream, counters, cut
chunks and metrics, the subscriber must see the same events, and the
metrics must be what the event-at-a-time reference fold makes of the
live stream.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.events import (
    ActivationEvent,
    PeriodCloseEvent,
    RpcEvent,
    SwitchEvent,
)
from repro.obs.pipeline import ArenaBus
from repro.obs.prom import render_prometheus
from repro.obs.session import ObsSession
from tests.obs.test_metrics_fold import KINDS, reference_fold

scopes = st.sampled_from(["", "node00", "node01", "rackB/n3"])
ints = st.integers(min_value=-3, max_value=50)
#: The kinds with a scalar emitter, every field drawn (small, so the
#: fold's branches — a negative start, a miss — are all reached).
SCALAR_KINDS = [
    st.builds(
        SwitchEvent,
        time=ints,
        from_thread=ints,
        to_thread=ints,
        kind=st.sampled_from(["voluntary", "involuntary"]),
        cost_ticks=st.integers(min_value=0, max_value=60),
    ),
    st.builds(
        PeriodCloseEvent,
        time=ints,
        thread_id=ints,
        period_index=ints,
        start=ints,
        completion=ints,
        granted=ints,
        delivered=ints,
        missed=st.booleans(),
        voided=st.booleans(),
    ),
    st.builds(ActivationEvent, time=ints, pending=ints),
    st.builds(
        RpcEvent,
        time=ints,
        action=st.sampled_from(["send", "receive", "drop", "retry"]),
        src=st.sampled_from(["broker", "node00"]),
        dst=st.sampled_from(["broker", "node01"]),
        kind=st.sampled_from(["admit", "remove"]),
        request_id=st.sampled_from(["", "admit:a:1"]),
        attempt=st.integers(min_value=0, max_value=3),
        trace_id=st.sampled_from(["", "t1"]),
    ),
]
events = st.one_of(*SCALAR_KINDS, *KINDS.values()).map(
    lambda e: dataclasses.replace(e, node="")
)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("emit"), scopes, events),
        st.tuples(
            st.just("cut"), st.none(), st.one_of(st.none(), st.integers(2, 8))
        ),
    ),
    max_size=60,
)


def scoped_write(session: ObsSession, node: str, event) -> None:
    """``event`` written through ``node``'s scope, scalars where the
    kind has a scalar emitter."""
    scope = session.scoped(node)
    if isinstance(event, SwitchEvent):
        scope.emit_switch(
            event.time, event.from_thread, event.to_thread, event.kind, event.cost_ticks
        )
    elif isinstance(event, PeriodCloseEvent):
        scope.emit_period_close(
            event.time,
            event.thread_id,
            event.period_index,
            event.start,
            event.completion,
            event.granted,
            event.delivered,
            event.missed,
            event.voided,
        )
    elif isinstance(event, ActivationEvent):
        scope.emit_activation(event.time, event.pending)
    else:
        scope.emit(event)


def recorded_as(event, node: str):
    """Where the bus writes a hop (node-less, attempt 0) or a stamped row."""
    if isinstance(event, RpcEvent) and not node:
        return dataclasses.replace(event, attempt=0)
    return event


def state(bus: ArenaBus) -> dict:
    return {
        "columns": {
            node: {tag: kind.columns for tag, kind in arena.kinds.items()}
            for node, arena in bus.arenas.items()
        },
        "order": {node: arena.order for node, arena in bus.arenas.items()},
        "_order": bus._order,
        "materialize": bus.materialize(),
        "cum": bus.cum(),
    }


class TestScopedWritesMatchTypedEmits:
    @settings(max_examples=200, deadline=None)
    @given(
        steps,
        st.one_of(st.none(), st.integers(min_value=2, max_value=8)),
        st.integers(min_value=0, max_value=60),
    )
    def test_scope_and_typed_emit_record_the_same_rows(
        self, steps, capacity, subscribe_at
    ):
        scoped, typed = ObsSession(), ObsSession()
        scoped.bus = ArenaBus(capacity=capacity)
        typed.bus = ArenaBus(capacity=capacity)
        seen = {"scoped": [], "typed": []}
        expected = []  # what a subscriber should see: the stamped events
        subscribe_at %= len(steps) + 1  # past the last step: never
        for index, (step, node, arg) in enumerate(steps):
            if index == subscribe_at:
                scoped.bus.subscribe(seen["scoped"].append)
                typed.bus.subscribe(seen["typed"].append)
            if step == "cut":
                assert {
                    name: arena.cut(arg)
                    for name, arena in sorted(scoped.bus.arenas.items())
                } == {
                    name: arena.cut(arg)
                    for name, arena in sorted(typed.bus.arenas.items())
                }
                continue
            event = recorded_as(arg, node)
            if isinstance(event, RpcEvent) and not node:
                scoped.bus.emit_rpc(
                    event.time,
                    event.action,
                    event.src,
                    event.dst,
                    event.kind,
                    event.request_id,
                    event.trace_id,
                )
            else:
                scoped_write(scoped, node, event)
            typed.bus.emit(event, node=node)
            if index >= subscribe_at:
                expected.append(dataclasses.replace(event, node=node))
        assert state(scoped.bus) == state(typed.bus)
        assert seen["scoped"] == seen["typed"] == expected
        # One read at the end folds exactly the live rows, one range per
        # (node, kind), as the event-at-a-time reference fold does.
        reference = ObsSession().registry
        for event in scoped.events:
            reference_fold(reference, event)
        assert scoped.metrics_prom() == typed.metrics_prom()
        assert scoped.metrics_prom() == render_prometheus(reference)
