"""RPC fault paths with telemetry attached: retry exhaustion, duplicate
delivery (idempotency), jitter=0 determinism, exactly-once event counts."""

from collections import Counter

from repro import units
from repro.cluster import ClusterSimulation
from repro.cluster.broker import BROKER, ClusterBroker
from repro.cluster.node import ClusterNode
from repro.cluster.placement import make_policy
from repro.config import ContextSwitchCosts, MachineConfig, SimConfig
from repro.obs.session import ObsSession
from repro.sim.messages import MessageBus
from repro.sim.rng import RngRegistry
from repro.workloads import single_entry_definition


def ms(x):
    return units.ms_to_ticks(x)


QUIET = MachineConfig(switch_costs=ContextSwitchCosts.zero())


def definition(name="a", period_ms=30, rate=0.3):
    return single_entry_definition(name, period_ms, rate)


def of_type(session, tag):
    return [e for e in session.events if e.type == tag]


def rpc_actions(session, kind="admit"):
    """action -> count over the session's RPC events of one message kind."""
    return Counter(
        e.action for e in of_type(session, "rpc") if e.kind == kind
    )


class TestRetryBudget:
    def make_broker(self, nodes=2):
        """A broker wired to a bus nobody drains: every RPC times out."""
        session = ObsSession()
        bus = MessageBus(RngRegistry(7).stream("bus"), latency_ticks=27)
        bus.obs = session.bus
        broker = ClusterBroker(
            bus,
            {f"node{i:02d}": 0.96 for i in range(nodes)},
            make_policy("first-fit"),
            obs=session,
        )
        return session, bus, broker

    def drain_timeouts(self, broker):
        now = 0
        while not broker.idle:
            now = broker.next_deadline()
            broker.check_timeouts(now)
        return now

    def test_exhausted_budget_fails_over_then_denies(self):
        session, bus, broker = self.make_broker(nodes=2)
        broker.submit("a", definition("a"), 0)
        self.drain_timeouts(broker)
        # 3 transmissions per node (1 original + 2 retries), both nodes
        # tried, then a cluster-wide denial.
        assert broker.stats.retries >= 4
        assert broker.stats.timeouts >= 2
        assert broker.stats.denied == 1
        assert broker.denials == [("a", "no candidate nodes")]
        assert broker.node_of("a") is None

    def test_retry_and_timeout_telemetry_matches_the_stats(self):
        session, bus, broker = self.make_broker(nodes=2)
        broker.submit("a", definition("a"), 0)
        self.drain_timeouts(broker)
        events = of_type(session, "rpc")
        assert Counter(e.action for e in events)["retry"] == broker.stats.retries
        assert Counter(e.action for e in events)["timeout"] == broker.stats.timeouts
        admit = rpc_actions(session, "admit")
        # Per node: attempts 2 and 3 are retries, then one timeout.
        assert admit["retry"] == 4
        assert admit["timeout"] == 2
        retry_attempts = sorted(
            e.attempt for e in events if e.action == "retry" and e.kind == "admit"
        )
        assert retry_attempts == [2, 2, 3, 3]

    def test_failed_operation_is_one_span_tree(self):
        """Both node attempts hang off the single place:a root span, so
        the fail-over chain renders as one causal tree."""
        session, bus, broker = self.make_broker(nodes=2)
        broker.submit("a", definition("a"), 0)
        end = self.drain_timeouts(broker)
        (root,) = [s for s in session.spans.roots() if s.name == "place:a"]
        assert root.status == "failed"
        children = session.spans.children_of(root)
        assert [s.name for s in children] == ["admit:node00", "admit:node01"]
        assert all(s.status == "timeout" for s in children)
        assert {s.trace_id for s in children} == {root.trace_id}
        session.spans.finish_open(end)  # cleanup removes never finish
        # Every bus send of this operation carries the attempt's trace id.
        sends = [
            e
            for e in of_type(session, "rpc")
            if e.action == "send" and e.kind == "admit"
        ]
        assert sends and all(e.trace_id == root.trace_id for e in sends)


class TestDuplicateDelivery:
    def make_node(self):
        session = ObsSession()
        node = ClusterNode(
            "node00",
            machine=QUIET,
            sim=SimConfig(horizon=ms(300), seed=1),
            sanitize=False,
            obs=session.scoped("node00"),
        )
        return session, node

    def test_duplicate_admit_is_served_from_the_reply_cache(self):
        """A broker retry after a lost *reply* re-delivers the same
        request id; the node must not admit twice."""
        session, node = self.make_node()
        payload = {"request_id": "admit:a:1", "task": "a", "definition": definition("a")}
        first = node.handle("admit", payload, now=ms(1))
        duplicate = node.handle("admit", payload, now=ms(6))
        assert duplicate == first
        assert duplicate[1]["ok"] is True
        # One admission side effect, not two.
        assert len(node.rd.resource_manager.admitted_ids()) == 1
        admissions = of_type(session, "admission")
        assert len(admissions) == 1

    def test_dedup_telemetry_fires_once_per_duplicate(self):
        session, node = self.make_node()
        payload = {"request_id": "admit:a:1", "task": "a", "definition": definition("a")}
        node.handle("admit", payload, now=ms(1))
        node.handle("admit", payload, now=ms(6))
        node.handle("admit", payload, now=ms(11))
        dedups = [
            e for e in of_type(session, "rpc") if e.action == "dedup"
        ]
        assert [e.time for e in dedups] == [ms(6), ms(11)]
        assert all(e.request_id == "admit:a:1" for e in dedups)
        assert all(e.node == "node00" for e in dedups)

    def test_duplicate_remove_is_idempotent_too(self):
        session, node = self.make_node()
        node.handle(
            "admit",
            {"request_id": "admit:a:1", "task": "a", "definition": definition("a")},
            now=ms(1),
        )
        remove = {"request_id": "remove:a:2", "task": "a"}
        first = node.handle("remove", remove, now=ms(40))
        duplicate = node.handle("remove", remove, now=ms(45))
        assert duplicate == first
        assert not node.has_task("a")


class TestExactlyOnce:
    def run_cluster(self, seed=7, drop_rate=0.0, jitter_ticks=0):
        session = ObsSession()
        sim = ClusterSimulation(
            node_count=2,
            seed=seed,
            policy="aimd",
            horizon=ms(300),
            machine=QUIET,
            jitter_ticks=jitter_ticks,
            drop_rate=drop_rate,
            obs=session,
        )
        for i in range(4):
            sim.submit_at(ms(1 + 3 * i), f"t{i}", definition(f"t{i}"))
        sim.run_until(sim.horizon)
        return session, sim

    def test_fault_free_run_sends_each_logical_rpc_once(self):
        session, sim = self.run_cluster(drop_rate=0.0)
        events = of_type(session, "rpc")
        assert not [e for e in events if e.action in ("retry", "timeout", "dedup", "drop")]
        for kind in ("admit", "admit-reply"):
            per_request = Counter(
                e.request_id for e in events if e.kind == kind and e.action == "send"
            )
            assert per_request  # the workload exercised this kind
            assert set(per_request.values()) == {1}
            received = Counter(
                e.request_id for e in events if e.kind == kind and e.action == "receive"
            )
            assert received == per_request

    def test_faulty_run_accounts_every_transmission(self):
        """With drops, send = receive + drop per message kind, and every
        duplicate admission is absorbed — never a double admit."""
        session, sim = self.run_cluster(seed=3, drop_rate=0.25)
        events = of_type(session, "rpc")
        actions = Counter(e.action for e in events)
        assert actions["drop"] > 0
        # Anything neither received nor dropped is still queued at the
        # horizon (sent but not yet due).
        assert actions["send"] == actions["receive"] + actions["drop"] + len(sim.bus)
        assert sim.broker.stats.admitted == 4
        for i in range(4):
            holders = [n for n in sim.nodes.values() if n.has_task(f"t{i}")]
            assert len(holders) == 1

    def test_jitter_zero_same_seed_runs_are_byte_identical(self):
        def artifacts(seed):
            session, sim = self.run_cluster(seed=seed, drop_rate=0.1, jitter_ticks=0)
            return (
                session.events_jsonl(),
                session.metrics_prom(),
                session.perfetto_json(sim.now),
            )

        assert artifacts(7) == artifacts(7)
        # Different seed, different fault pattern — the artifacts differ.
        assert artifacts(7)[0] != artifacts(8)[0]
