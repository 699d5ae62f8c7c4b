"""ObsBus fan-out, node-scope stamping, and the event type table."""

import dataclasses

import pytest

from repro.obs.events import (
    EVENT_TYPES,
    AdmissionEvent,
    ObsBus,
    ObsEvent,
    RpcEvent,
    SwitchEvent,
)
from repro.obs.session import ObsSession


class TestObsBus:
    def test_emit_fans_out_in_subscription_order(self):
        bus = ObsBus()
        seen = []
        bus.subscribe(lambda e: seen.append(("a", e)))
        bus.subscribe(lambda e: seen.append(("b", e)))
        event = SwitchEvent(time=27)
        bus.emit(event)
        assert seen == [("a", event), ("b", event)]

    def test_emit_without_subscribers_is_a_noop(self):
        bus = ObsBus()
        bus.emit(SwitchEvent(time=0))  # must not raise, must not store

    def test_events_are_immutable(self):
        event = AdmissionEvent(time=1, task="stb")
        with pytest.raises(dataclasses.FrozenInstanceError):
            event.task = "other"


class TestScopedBus:
    """``ObsSession.scoped(node)``: the node's recording scope, which
    stamps rows with its node and writes them into the session's bus."""

    def test_scoped_bus_stamps_empty_node(self):
        session = ObsSession()
        seen = []
        session.bus.subscribe(seen.append)
        session.scoped("node03").emit(SwitchEvent(time=5, from_thread=1))
        assert seen[0].node == "node03"
        # The payload fields survive the re-stamp.
        assert seen[0].from_thread == 1
        assert session.events == seen

    def test_scoped_bus_keeps_an_explicit_node(self):
        session = ObsSession()
        seen = []
        session.bus.subscribe(seen.append)
        session.scoped("node03").emit(SwitchEvent(time=5, node="elsewhere"))
        assert seen[0].node == "elsewhere"
        assert sorted(session.bus.arenas) == ["elsewhere"]

    def test_scopes_share_one_underlying_bus(self):
        session = ObsSession()
        seen = []
        session.bus.subscribe(seen.append)
        session.scoped("node00").emit(SwitchEvent(time=1))
        session.scoped("node01").emit(SwitchEvent(time=2))
        assert [e.node for e in seen] == ["node00", "node01"]
        assert session.scoped("node00") is session.scoped("node00")

    def test_an_empty_scope_is_truthy(self):
        """Hook sites guard with ``if self.obs:``: a scope whose node has
        recorded nothing yet must still record."""
        assert ObsSession().scoped("node00")


class TestEventTypes:
    def test_every_registered_class_matches_its_tag(self):
        for tag, cls in EVENT_TYPES.items():
            assert cls.type == tag
            assert issubclass(cls, ObsEvent)

    def test_taxonomy_covers_the_documented_event_kinds(self):
        assert set(EVENT_TYPES) == {
            "activation",
            "admission",
            "policy-resolution",
            "grant-recompute",
            "grant-change",
            "context-switch",
            "grace-period",
            "period-close",
            "rpc",
            "migration",
            "slo-alert",
            "violation",
        }

    def test_rpc_event_defaults_are_wire_safe(self):
        event = RpcEvent(time=0)
        assert event.type == "rpc"
        assert event.trace_id == ""
        assert event.request_id == ""
