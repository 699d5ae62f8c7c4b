"""Load feedback: AIMD weight dynamics driven by node reports."""

from repro import units
from repro.cluster import BrokerConfig, ClusterSimulation
from repro.config import ContextSwitchCosts, MachineConfig
from repro.tasks.mpeg import MpegDecoder
from repro.workloads import single_entry_definition

QUIET = MachineConfig(switch_costs=ContextSwitchCosts.zero())


def ms(x):
    return units.ms_to_ticks(x)


class TestAimdDynamics:
    def test_overloaded_node_loses_weight_idle_node_gains(self):
        sim = ClusterSimulation(
            node_count=2,
            seed=7,
            policy="first-fit",
            horizon=ms(400),
            epoch_ticks=ms(50),
            machine=QUIET,
            broker_config=BrokerConfig(migrate=False),
        )
        for i in range(4):
            decoder = MpegDecoder(f"mpeg{i}")
            sim.submit_at(ms(1 + i), decoder.name, decoder.definition())
        sim.run_until(sim.horizon)
        weights = sim.broker.weights()
        # node00 reported degraded QOS every epoch (multiplicative
        # decrease); node01 reported healthy (additive increase).
        assert weights["node00"] < 1.0
        assert weights["node01"] > 1.0

    def test_weights_stay_within_configured_bounds(self):
        config = BrokerConfig(
            migrate=False, ai_step=5.0, md_factor=0.01, weight_min=0.2, weight_max=2.0
        )
        sim = ClusterSimulation(
            node_count=2,
            seed=7,
            policy="first-fit",
            horizon=ms(600),
            epoch_ticks=ms(50),
            machine=QUIET,
            broker_config=config,
        )
        for i in range(4):
            decoder = MpegDecoder(f"mpeg{i}")
            sim.submit_at(ms(1 + i), decoder.name, decoder.definition())
        sim.run_until(sim.horizon)
        weights = sim.broker.weights()
        assert weights["node00"] == 0.2  # clamped at weight_min
        assert weights["node01"] == 2.0  # clamped at weight_max

    def test_low_headroom_counts_as_overload_without_degradation(self):
        """A node packed with single-entry tasks never degrades, but its
        headroom sits under the threshold — AIMD still sheds it."""
        sim = ClusterSimulation(
            node_count=2,
            seed=7,
            policy="first-fit",
            horizon=ms(300),
            epoch_ticks=ms(50),
            machine=QUIET,
            broker_config=BrokerConfig(overload_headroom=0.10, migrate=False),
        )
        sim.submit_at(ms(1), "big", single_entry_definition("big", 30, 0.9))
        sim.run_until(sim.horizon)
        weights = sim.broker.weights()
        assert weights["node00"] < 1.0  # headroom 0.06 < 0.10 threshold
        assert weights["node01"] > 1.0

    def test_recovery_restores_weight_additively(self):
        """After the load departs, healthy reports rebuild the weight one
        additive step per epoch."""
        config = BrokerConfig(migrate=False, ai_step=0.1, md_factor=0.5)
        sim = ClusterSimulation(
            node_count=1,
            seed=7,
            policy="first-fit",
            horizon=ms(800),
            epoch_ticks=ms(50),
            machine=QUIET,
            broker_config=config,
        )
        for i in range(4):
            decoder = MpegDecoder(f"mpeg{i}")
            sim.submit_at(ms(1 + i), decoder.name, decoder.definition())
        sim.run_for(ms(300))
        depressed = sim.broker.weights()["node00"]
        assert depressed < 1.0
        for i in range(4):
            sim.withdraw_at(sim.now + ms(1 + i), f"mpeg{i}")
        sim.run_until(sim.horizon)
        recovered = sim.broker.weights()["node00"]
        assert recovered > depressed


class TestLoadReport:
    def test_miss_deltas_equal_a_full_recount_each_epoch(self):
        """A record-mode node under the fuzzer's anti-EDF injection
        really misses; what each report counts must be exactly the
        misses recorded since the previous one."""
        from repro.cluster.node import ClusterNode
        from repro.config import SimConfig
        from repro.fuzz.inject import INJECTIONS

        node = ClusterNode("n0", sim=SimConfig(seed=3), sanitize_strict=False)
        INJECTIONS["edf-invert"](node.rd)
        for name, period_ms in (("fast", 5), ("mid", 20), ("slow", 50)):
            node.rd.admit(single_entry_definition(name, period_ms, 0.3))
        recounted = 0
        deltas = []
        for _ in range(3):
            node.rd.run_for(ms(100))
            deltas.append(node.load_report(node.rd.now).misses_delta)
            total = len(node.rd.trace.misses())
            assert deltas[-1] == total - recounted
            recounted = total
        assert all(deltas) and sum(deltas) == recounted
        # Nothing ran since the last report: nothing new to count.
        assert node.load_report(node.rd.now).misses_delta == 0
