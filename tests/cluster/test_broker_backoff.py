"""Broker retry cadence (fixed) and idempotency-token exception safety."""

import pytest

from repro.cluster.broker import (
    MAX_ATTEMPTS_PER_NODE,
    RPC_TIMEOUT_TICKS,
    ClusterBroker,
)
from repro.cluster.placement import make_policy
from repro.errors import SimulationError
from repro.obs.session import ObsSession
from repro.sim.messages import MessageBus
from repro.sim.rng import RngRegistry
from repro.workloads import single_entry_definition


def make_broker():
    """A broker over a bus nobody drains, so every RPC times out."""
    session = ObsSession()
    bus = MessageBus(RngRegistry(7).stream("bus"), latency_ticks=27)
    bus.obs = session.bus
    broker = ClusterBroker(
        bus, {"node00": 0.96}, make_policy("first-fit"), obs=session
    )
    return session, broker


class TestRetryBackoff:
    def test_default_config_keeps_the_fixed_cadence(self):
        session, broker = make_broker()
        broker.submit("a", single_entry_definition("a", 30, 0.3), 0)
        while not broker.idle:
            broker.check_timeouts(broker.next_deadline())
        # The exhausted admit triggers a cleanup ``remove`` with retries
        # of its own, so read the admit's schedule from telemetry.
        times = [
            e.time
            for e in session.events
            if e.type == "rpc" and e.kind == "admit" and e.action == "retry"
        ]
        # Every retransmission exactly one timeout after the last.
        assert times == [
            n * RPC_TIMEOUT_TICKS for n in range(1, MAX_ATTEMPTS_PER_NODE)
        ]
        assert broker.next_deadline() is None


class TestTransmitExceptionSafety:
    def test_raising_send_releases_the_admit_token(self):
        session, broker = make_broker()
        with pytest.raises(SimulationError):
            # A negative send time makes MessageBus.send raise after the
            # token was registered; the broker must unwind it.
            broker.submit("a", single_entry_definition("a", 30, 0.3), -1)
        assert broker.idle
        assert broker.next_deadline() is None

    def test_raising_send_releases_the_remove_token(self):
        session, broker = make_broker()
        broker.submit("a", single_entry_definition("a", 30, 0.3), 0)
        # Resolve the admission by hand so a placement exists.
        request_id = next(iter(broker._pending))
        pending = broker._pending[request_id]
        broker._admit_succeeded(pending, 0)
        del broker._pending[request_id]
        with pytest.raises(SimulationError):
            broker.withdraw("a", -1)
        assert broker.idle
