"""The broker offers a task only to the nodes whose own admission rule
could hold it on empty books; a task no node could ever hold is denied
without an RPC, and load denials still fail over node by node."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.broker import BROKER, ClusterBroker
from repro.cluster.node import ClusterNode
from repro.cluster.placement import make_policy
from repro.config import ContextSwitchCosts, MachineConfig
from repro.errors import ReproError
from repro.obs.session import ObsSession
from repro.sim.messages import MessageBus
from repro.sim.rng import RngRegistry
from repro.workloads import single_entry_definition

#: Interrupt reserves a node may be configured with: the paper's 4 %,
#: none, and a few larger ones so capacities differ across a rack.
RESERVES = (0.0, 0.04, 0.1, 0.25, 0.5, 0.7)


def machine(reserve):
    return MachineConfig(
        interrupt_reserve=reserve, switch_costs=ContextSwitchCosts.zero()
    )


def make_broker(reserves, policy="first-fit"):
    """A broker over one node per reserve, named node00, node01, ..."""
    session = ObsSession()
    bus = MessageBus(RngRegistry(7).stream("bus"), latency_ticks=27)
    bus.obs = session.bus
    machines = {f"node{i:02d}": machine(r) for i, r in enumerate(reserves)}
    broker = ClusterBroker(
        bus,
        {name: m.schedulable_capacity for name, m in machines.items()},
        make_policy(policy),
        obs=session,
    )
    nodes = {name: ClusterNode(name, machine=m) for name, m in machines.items()}
    return session, bus, broker, nodes


def deliver_all(bus, broker, nodes):
    """Carry every message to its addressee until the bus is quiet."""
    while len(bus):
        now = bus.next_time()
        for envelope in bus.pop_due(now):
            if envelope.dst == BROKER:
                broker.on_message(envelope, now)
                continue
            kind, payload = nodes[envelope.dst].handle(
                envelope.kind, envelope.payload, now
            )
            bus.send(envelope.dst, BROKER, kind, payload, now, trace=envelope.trace)


def node_refuses(reserve, definition):
    """A fresh node with this machine, asked directly."""
    node = ClusterNode("probe", machine=machine(reserve))
    try:
        node.rd.admit(definition)
    except ReproError:
        return True
    return False


def admit_targets(session, task):
    (root,) = [s for s in session.spans.spans if s.name == f"place:{task}"]
    children = [s for s in session.spans.spans if s.parent_id == root.span_id]
    return root, [s.name.split(":", 1)[1] for s in children]


class TestTheFilterMatchesTheNode:
    @settings(max_examples=60, deadline=None)
    @given(
        reserve=st.sampled_from(RESERVES),
        rate=st.one_of(
            st.floats(min_value=0.001, max_value=1.0),
            st.sampled_from([1.0 - r for r in RESERVES]),
        ),
    )
    def test_a_node_is_dropped_exactly_when_it_would_refuse(self, reserve, rate):
        definition = single_entry_definition("t", 30, rate)
        session, bus, broker, _ = make_broker([reserve])
        broker.submit("t", definition, 0)
        dropped = bus.stats.sent == 0
        assert dropped == node_refuses(reserve, definition)
        assert broker.stats.denied == (1 if dropped else 0)

    def test_a_minimum_equal_to_capacity_is_sent(self):
        for reserve in RESERVES:
            capacity = machine(reserve).schedulable_capacity
            definition = single_entry_definition("t", 30, capacity)
            assert definition.resource_list.minimum.rate == pytest.approx(
                capacity, abs=1e-12
            )
            session, bus, broker, nodes = make_broker([reserve])
            broker.submit("t", definition, 0)
            assert bus.stats.sent == 1
            deliver_all(bus, broker, nodes)
            assert broker.node_of("t") == "node00"


class TestFailOver:
    def test_mixed_capacities_skip_only_the_nodes_too_small(self):
        # Capacities 0.3, 0.96, 0.5, 0.9: a 0.6 task could fit on
        # node01 and node03 only.
        session, bus, broker, nodes = make_broker([0.7, 0.04, 0.5, 0.1])
        nodes["node01"].rd.admit(single_entry_definition("filler", 30, 0.5))
        broker.submit("t", single_entry_definition("t", 30, 0.6), 0)
        deliver_all(bus, broker, nodes)
        root, targets = admit_targets(session, "t")
        # node01 is full (the broker's view does not know): it denies,
        # and the walk moves on to node03, never to node00 or node02.
        assert targets == ["node01", "node03"]
        assert root.attrs["candidates"] == 2
        assert root.status == "admitted"
        assert broker.node_of("t") == "node03"
        assert bus.stats.sent == 4  # two admits, two replies

    def test_a_load_denial_on_every_feasible_node_ends_the_walk(self):
        session, bus, broker, nodes = make_broker([0.7, 0.04, 0.1])
        for name in ("node01", "node02"):
            nodes[name].rd.admit(single_entry_definition("filler", 30, 0.5))
        broker.submit("t", single_entry_definition("t", 30, 0.6), 0)
        deliver_all(bus, broker, nodes)
        root, targets = admit_targets(session, "t")
        assert targets == ["node01", "node02"]
        assert root.status == "failed"
        assert broker.denials == [("t", "no candidate nodes")]

    def test_a_whale_is_denied_without_an_rpc(self):
        session, bus, broker, nodes = make_broker([0.04] * 4, policy="aimd")
        broker.submit("whale", single_entry_definition("whale", 30, 0.99), 0)
        error = (
            "minimum rate 0.990 exceeds every node's schedulable capacity (0.960)"
        )
        assert bus.stats.sent == 0
        assert broker.stats.denied == 1
        assert broker.denials == [("whale", error)]
        assert broker.idle
        root, targets = admit_targets(session, "whale")
        assert targets == []
        assert root.attrs["candidates"] == 0
        assert (root.status, root.attrs["error"]) == ("failed", error)
        assert root.finished
        assert not [e for e in session.events if e.type in ("admission", "rpc")]

    def test_the_bound_named_is_the_largest_capacity(self):
        session, bus, broker, nodes = make_broker([0.7, 0.25, 0.5])
        broker.submit("t", single_entry_definition("t", 30, 0.8), 0)
        assert bus.stats.sent == 0
        assert broker.denials == [
            ("t", "minimum rate 0.800 exceeds every node's schedulable capacity (0.750)")
        ]
