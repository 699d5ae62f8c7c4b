"""Broker retry backoff (opt-in) and idempotency-token exception safety."""

import random

import pytest

from repro import units
from repro.cluster.broker import BrokerConfig, ClusterBroker
from repro.cluster.placement import make_policy
from repro.errors import SimulationError
from repro.obs.session import ObsSession
from repro.sim.messages import MessageBus
from repro.sim.rng import RngRegistry
from repro.workloads import single_entry_definition


def of_type(session, tag):
    return [e for e in session.events if e.type == tag]


def make_broker(config=None, retry_rng=None, nodes=1):
    """A broker over a bus nobody drains, so every RPC times out."""
    session = ObsSession()
    bus = MessageBus(RngRegistry(7).stream("bus"), latency_ticks=27)
    bus.obs = session.bus
    broker = ClusterBroker(
        bus,
        {f"node{i:02d}": 0.96 for i in range(nodes)},
        make_policy("first-fit"),
        config,
        obs=session,
        retry_rng=retry_rng,
    )
    return session, bus, broker


def retry_times(session, broker, kind="admit"):
    """Drive the timeout loop; return the time of each admit retransmission.

    The exhausted admit triggers a cleanup ``remove`` RPC with its own
    retries, so the schedule is read from telemetry filtered to one kind
    rather than inferred from the aggregate retry counter.
    """
    while not broker.idle:
        broker.check_timeouts(broker.next_deadline())
    return [
        e.time
        for e in of_type(session, "rpc")
        if e.kind == kind and e.action == "retry"
    ]


class TestRetryBackoff:
    def test_default_config_keeps_the_fixed_cadence(self):
        timeout = units.ms_to_ticks(5)
        session, bus, broker = make_broker(BrokerConfig(max_attempts_per_node=4))
        broker.submit("a", single_entry_definition("a", 30, 0.3), 0)
        times = retry_times(session, broker)
        # 3 retries (4 transmissions), each exactly one timeout apart.
        assert times == [timeout, 2 * timeout, 3 * timeout]

    def test_backoff_factor_spreads_the_retries(self):
        timeout = units.ms_to_ticks(5)
        config = BrokerConfig(max_attempts_per_node=4, retry_backoff_factor=2.0)
        session, bus, broker = make_broker(config)
        broker.submit("a", single_entry_definition("a", 30, 0.3), 0)
        times = retry_times(session, broker)
        # Delays 1t, 2t, 4t after transmissions 1, 2, 3.
        assert times == [timeout, 3 * timeout, 7 * timeout]

    def test_backoff_cap_bounds_the_gap(self):
        timeout = units.ms_to_ticks(5)
        config = BrokerConfig(
            max_attempts_per_node=5,
            retry_backoff_factor=2.0,
            retry_backoff_cap_ticks=2 * timeout,
        )
        session, bus, broker = make_broker(config)
        broker.submit("a", single_entry_definition("a", 30, 0.3), 0)
        times = retry_times(session, broker)
        # Delays 1t, 2t, then capped at 2t.
        assert times == [timeout, 3 * timeout, 5 * timeout, 7 * timeout]

    def test_jittered_retries_are_reproducible_from_the_seed(self):
        config = BrokerConfig(
            max_attempts_per_node=4,
            retry_backoff_factor=2.0,
            retry_jitter_ticks=units.ms_to_ticks(1),
        )

        def run():
            session, bus, broker = make_broker(
                config, retry_rng=RngRegistry(13).stream("cluster.broker.retry")
            )
            broker.submit("a", single_entry_definition("a", 30, 0.3), 0)
            return retry_times(session, broker)

        first, second = run(), run()
        assert first == second
        # The jitter actually moved at least one retry off the fixed grid.
        timeout = units.ms_to_ticks(5)
        assert first != [timeout, 3 * timeout, 7 * timeout]

    def test_jitter_without_a_stream_is_rejected_at_first_retry(self):
        config = BrokerConfig(retry_jitter_ticks=10)
        session, bus, broker = make_broker(config)
        with pytest.raises(SimulationError):
            broker.submit("a", single_entry_definition("a", 30, 0.3), 0)


class TestTransmitExceptionSafety:
    def test_raising_send_releases_the_admit_token(self):
        session, bus, broker = make_broker()
        with pytest.raises(SimulationError):
            # A negative send time makes MessageBus.send raise after the
            # token was registered; the broker must unwind it.
            broker.submit("a", single_entry_definition("a", 30, 0.3), -1)
        assert broker.idle
        assert broker.next_deadline() is None

    def test_raising_send_releases_the_remove_token(self):
        session, bus, broker = make_broker()
        broker.submit("a", single_entry_definition("a", 30, 0.3), 0)
        # Resolve the admission by hand so a placement exists.
        request_id = next(iter(broker._pending))
        pending = broker._pending[request_id]
        broker._admit_succeeded(pending, 0)
        del broker._pending[request_id]
        with pytest.raises(SimulationError):
            broker.withdraw("a", -1)
        assert broker.idle
