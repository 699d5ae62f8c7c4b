"""Migration: sustained overload moves a task; never-terminated holds."""

from repro import units
from repro.cluster import BrokerConfig, ClusterSimulation
from repro.cluster import broker as broker_module
from repro.config import ContextSwitchCosts, MachineConfig
from repro.tasks.mpeg import MpegDecoder

QUIET = MachineConfig(switch_costs=ContextSwitchCosts.zero())


def ms(x):
    return units.ms_to_ticks(x)


def overloaded_sim(migrate=True, nodes=2, decoders=4, seed=7, latency_ticks=None):
    """node00 packed with multi-level MPEG decoders, node01 empty.

    Four decoders want 4 x 33.3% maxima on a 96% node, so grant control
    pins some at a degraded entry — the sustained-overload signal."""
    sim = ClusterSimulation(
        node_count=nodes,
        seed=seed,
        policy="first-fit",
        horizon=ms(800),
        latency_ticks=latency_ticks,
        machine=QUIET,
        broker_config=BrokerConfig(migrate=migrate),
    )
    for i in range(decoders):
        decoder = MpegDecoder(f"mpeg{i}")
        sim.submit_at(ms(1 + i), decoder.name, decoder.definition())
    return sim


class TestMigrationTrigger:
    def test_sustained_overload_migrates_a_task(self):
        sim = overloaded_sim()
        sim.run_until(sim.horizon)
        stats = sim.broker.stats
        assert stats.migrations_started >= 1
        assert stats.migrations_completed >= 1
        moved = [t for t, p in sim.broker.placements.items() if p.migrations]
        assert moved
        # The overload resolved: the 4 decoders end up spread over both
        # nodes (2+2 is the stable split), books matching reality.
        per_node = {name: 0 for name in sim.nodes}
        for task, placed in sim.broker.placements.items():
            per_node[placed.node] += 1
            assert task in sim.nodes[placed.node].tasks
        assert per_node == {"node00": 2, "node01": 2}

    def test_migration_master_switch(self):
        sim = overloaded_sim(migrate=False)
        sim.run_until(sim.horizon)
        assert sim.broker.stats.migrations_started == 0
        # Degradation still resolved the overload locally: everything
        # stays admitted on node00.
        assert all(p.node == "node00" for p in sim.broker.placements.values())

    def test_transient_overload_does_not_migrate(self, monkeypatch):
        """The overload streak resets on a healthy report, so a node must
        stay overloaded for OVERLOAD_EPOCHS consecutive reports."""
        monkeypatch.setattr(broker_module, "OVERLOAD_EPOCHS", 1000)
        sim = overloaded_sim()
        sim.run_until(sim.horizon)
        assert sim.broker.stats.migrations_started == 0


class TestNeverTerminated:
    def test_migrated_task_never_misses_a_period(self):
        """The old grant stays live until the new node admits: across the
        move, every period of every task still delivers its grant."""
        sim = overloaded_sim()
        sim.run_until(sim.horizon)
        assert sim.broker.stats.migrations_completed >= 1
        for node in sim.nodes.values():
            assert node.rd.trace.misses() == []
            assert node.rd.sanitizer is not None and node.rd.sanitizer.ok

    def test_source_keeps_task_until_target_confirms(self):
        """With bus latency, there is a window where *both* nodes hold
        the task (target admitted, source remove still in flight) — and
        never a window where neither does."""
        sim = overloaded_sim(latency_ticks=ms(4))
        holders_per_check = []
        step = ms(1)
        for _ in range(800):
            sim.run_for(step)
            placed = set(sim.broker.placements)
            for task in placed:
                holders = [n.name for n in sim.nodes.values() if task in n.tasks]
                holders_per_check.append((task, holders))
        assert sim.broker.stats.migrations_completed >= 1
        # A placed task is always on at least one node; transiently on two.
        assert all(holders for _, holders in holders_per_check)
        assert any(len(holders) == 2 for _, holders in holders_per_check)


class TestDegradePreferred:
    def test_no_migration_when_no_node_has_headroom(self):
        """Every node overloaded and no viable target: tasks stay
        degraded (degrade > migrate > deny) and nothing is denied."""
        sim = ClusterSimulation(
            node_count=2,
            seed=7,
            policy="first-fit",
            horizon=ms(600),
                machine=QUIET,
        )
        # 5 decoders per node: committed 5 x 16.7% = 83.5%, headroom
        # 12.5% < the 16.7% minimum any migration would need.
        for n in range(2):
            for i in range(5):
                decoder = MpegDecoder(f"n{n}-mpeg{i}")
                sim.submit_at(ms(1 + i), decoder.name, decoder.definition())
        sim.run_until(sim.horizon)
        assert sim.broker.stats.denied == 0
        assert sim.broker.stats.migrations_started == 0
        for node in sim.nodes.values():
            snapshot = node.rd.capacity_snapshot()
            assert snapshot.degraded > 0  # overloaded, but everyone admitted
            assert node.rd.trace.misses() == []
