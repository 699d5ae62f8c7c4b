"""MessageBus telemetry: send/receive/drop events and trace pass-through."""

from dataclasses import dataclass

from repro.obs.events import ObsBus
from repro.obs.spans import TraceContext
from repro.sim.messages import MessageBus
from repro.sim.rng import RngRegistry


def observed_bus(**kwargs):
    bus = MessageBus(RngRegistry(7).stream("bus"), **kwargs)
    events = []
    obs = ObsBus()
    obs.subscribe(events.append)
    bus.obs = obs
    return bus, events


class TestBusEvents:
    def test_send_and_receive_fire_exactly_once_per_hop(self):
        bus, events = observed_bus(latency_ticks=100)
        bus.send("broker", "node00", "admit", {"request_id": "admit:a:1"}, 0)
        assert [e.action for e in events] == ["send"]
        bus.pop_due(100)
        assert [e.action for e in events] == ["send", "receive"]
        send, receive = events
        assert (send.src, send.dst, send.kind) == ("broker", "node00", "admit")
        assert send.request_id == receive.request_id == "admit:a:1"
        assert send.time == 0
        assert receive.time == 100

    def test_drops_are_recorded_alongside_the_stats(self):
        bus, events = observed_bus(drop_rate=0.5)
        for i in range(50):
            bus.send("broker", "node00", "admit", {"request_id": f"admit:a:{i}"}, i)
        actions = [e.action for e in events]
        assert actions.count("send") == 50
        assert actions.count("drop") == bus.stats.dropped > 0
        # A dropped message is never received.
        bus.pop_due(10_000)
        received = [e for e in events if e.action == "receive"]
        assert len(received) == 50 - bus.stats.dropped
        dropped_ids = {e.payload["request_id"] for e in bus.dropped}
        assert dropped_ids.isdisjoint(e.request_id for e in received)

    def test_request_id_read_from_object_payloads_too(self):
        @dataclass
        class Report:
            request_id: str = "load:n0:1"

        bus, events = observed_bus()
        bus.send("node00", "broker", "load-report", Report(), 0)
        assert events[0].request_id == "load:n0:1"
        bus.send("node00", "broker", "load-report", object(), 0)
        assert events[1].request_id == ""

    def test_unobserved_bus_emits_nothing(self):
        bus = MessageBus(RngRegistry(7).stream("bus"))
        envelope = bus.send("a", "b", "k", {}, 0)
        assert bus.obs is None
        assert envelope.trace is None


class TestTracePropagation:
    def test_envelope_carries_the_context_verbatim(self):
        bus, events = observed_bus()
        context = TraceContext("t0042", 9)
        envelope = bus.send("broker", "node00", "admit", {}, 0, trace=context)
        assert envelope.trace is context
        assert events[0].trace_id == "t0042"
        (delivered,) = bus.pop_due(0)
        assert delivered.trace is context
        assert events[1].trace_id == "t0042"
