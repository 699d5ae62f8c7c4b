"""Load feedback: AIMD weight dynamics driven by node reports."""

from repro import units
from repro.cluster import BrokerConfig, ClusterSimulation
from repro.cluster import broker as broker_module
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

    def test_weights_stay_within_configured_bounds(self, monkeypatch):
        # Steps large enough to hit both ends of the clamp in one run.
        monkeypatch.setattr(broker_module, "AI_STEP", 5.0)
        monkeypatch.setattr(broker_module, "MD_FACTOR", 0.01)
        sim = ClusterSimulation(
            node_count=2,
            seed=7,
            policy="first-fit",
            horizon=ms(600),
            machine=QUIET,
            broker_config=BrokerConfig(migrate=False),
        )
        for i in range(4):
            decoder = MpegDecoder(f"mpeg{i}")
            sim.submit_at(ms(1 + i), decoder.name, decoder.definition())
        sim.run_until(sim.horizon)
        weights = sim.broker.weights()
        assert weights["node00"] == broker_module.WEIGHT_MIN
        assert weights["node01"] == broker_module.WEIGHT_MAX

    def test_low_headroom_counts_as_overload_without_degradation(self, monkeypatch):
        """A node packed with single-entry tasks never degrades, but its
        headroom sits under the threshold — AIMD still sheds it."""
        monkeypatch.setattr(broker_module, "OVERLOAD_HEADROOM", 0.10)
        sim = ClusterSimulation(
            node_count=2,
            seed=7,
            policy="first-fit",
            horizon=ms(300),
            machine=QUIET,
            broker_config=BrokerConfig(migrate=False),
        )
        sim.submit_at(ms(1), "big", single_entry_definition("big", 30, 0.9))
        sim.run_until(sim.horizon)
        weights = sim.broker.weights()
        assert weights["node00"] < 1.0  # headroom 0.06 < 0.10 threshold
        assert weights["node01"] > 1.0

    def test_recovery_restores_weight_additively(self):
        """After the load departs, healthy reports rebuild the weight one
        additive step per epoch."""
        sim = ClusterSimulation(
            node_count=1,
            seed=7,
            policy="first-fit",
            horizon=ms(800),
            machine=QUIET,
            broker_config=BrokerConfig(migrate=False),
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
