"""ClusterBroker: placement, denial fail-over, withdrawal, RPC retries."""

from repro import units
from repro.cluster import ClusterSimulation
from repro.config import ContextSwitchCosts, MachineConfig
from repro.workloads import single_entry_definition


def ms(x):
    return units.ms_to_ticks(x)


#: Paper interrupt reserve, deterministic (free) context switches: with
#: stochastic switch costs a grant can legitimately come up a few ticks
#: short, which the strict per-node sanitizer would flag.
QUIET = MachineConfig(switch_costs=ContextSwitchCosts.zero())


def sim_with(policy="first-fit", nodes=2, seed=7, **kwargs):
    return ClusterSimulation(
        node_count=nodes,
        seed=seed,
        policy=policy,
        horizon=ms(300),
        machine=QUIET,
        **kwargs,
    )


def submit(sim, name, rate, at_ms=1, period_ms=30):
    sim.submit_at(ms(at_ms), name, single_entry_definition(name, period_ms, rate))


class TestPlacement:
    def test_first_fit_fills_node_zero_first(self):
        sim = sim_with("first-fit")
        for i in range(3):
            submit(sim, f"t{i}", 0.3, at_ms=1 + i)
        sim.run_for(ms(50))
        assert sim.broker.node_of("t0") == "node00"
        assert sim.broker.node_of("t1") == "node00"
        assert sim.broker.node_of("t2") == "node00"

    def test_aimd_spreads_across_nodes(self):
        sim = sim_with("aimd")
        for i in range(4):
            submit(sim, f"t{i}", 0.3, at_ms=1 + i)
        sim.run_for(ms(50))
        nodes = {sim.broker.node_of(f"t{i}") for i in range(4)}
        assert nodes == {"node00", "node01"}

    def test_denied_node_fails_over_to_next_candidate(self):
        """Two 0.6 tasks submitted the same tick: the broker's optimistic
        view sends both to node00; the second is denied there and must
        win admission on node01 instead."""
        sim = sim_with("first-fit")
        submit(sim, "big0", 0.6, at_ms=1)
        submit(sim, "big1", 0.6, at_ms=1)
        sim.run_for(ms(50))
        assert sim.broker.node_of("big0") == "node00"
        assert sim.broker.node_of("big1") == "node01"
        assert sim.broker.stats.denied == 0

    def test_cluster_wide_denial_when_every_node_is_full(self):
        sim = sim_with("first-fit")
        submit(sim, "a", 0.6, at_ms=1)
        submit(sim, "b", 0.6, at_ms=5)
        submit(sim, "c", 0.6, at_ms=10)  # 0.6+0.6 > 0.96 on both nodes
        sim.run_for(ms(50))
        assert sim.broker.stats.admitted == 2
        assert sim.broker.stats.denied == 1
        assert [task for task, _ in sim.broker.denials] == ["c"]
        assert sim.broker.node_of("c") is None

    def test_placements_match_node_task_maps(self):
        sim = sim_with("best-fit", nodes=3)
        for i in range(6):
            submit(sim, f"t{i}", 0.25, at_ms=1 + 2 * i)
        sim.run_until(sim.horizon)
        for task, placed in sim.broker.placements.items():
            assert task in sim.nodes[placed.node].tasks


class TestWithdrawal:
    def test_withdraw_frees_capacity_for_later_arrivals(self):
        sim = sim_with("first-fit", nodes=1)
        submit(sim, "a", 0.6, at_ms=1)
        sim.withdraw_at(ms(100), "a")
        submit(sim, "b", 0.6, at_ms=150)
        sim.run_until(sim.horizon)
        assert sim.broker.stats.withdrawals == 1
        assert sim.broker.node_of("a") is None
        assert sim.broker.node_of("b") == "node00"
        assert sim.broker.stats.denied == 0

    def test_withdrawn_task_exits_at_its_period_boundary(self):
        """exit honours the per-period guarantee: no miss is recorded for
        the withdrawn task's final period."""
        sim = sim_with("first-fit", nodes=1)
        submit(sim, "a", 0.4, at_ms=1)
        sim.withdraw_at(ms(95), "a")
        sim.run_until(sim.horizon)
        node = sim.nodes["node00"]
        assert "a" not in node.tasks
        assert node.rd.trace.misses() == []


class TestRetries:
    def test_drops_trigger_retries_not_double_admission(self):
        sim = sim_with("aimd", nodes=2, drop_rate=0.25)
        for i in range(4):
            submit(sim, f"t{i}", 0.3, at_ms=1 + 3 * i)
        sim.run_until(sim.horizon)
        stats = sim.broker.stats
        assert stats.retries > 0
        assert stats.admitted == 4
        # Idempotency: each task lives on exactly one node.
        for i in range(4):
            holders = [n for n in sim.nodes.values() if f"t{i}" in n.tasks]
            assert len(holders) == 1

    def test_fault_free_run_needs_no_retries(self):
        sim = sim_with("aimd", nodes=2, drop_rate=0.0)
        for i in range(4):
            submit(sim, f"t{i}", 0.3, at_ms=1 + 3 * i)
        sim.run_until(sim.horizon)
        assert sim.broker.stats.retries == 0
        assert sim.broker.stats.timeouts == 0


class TestLoadReports:
    def test_views_track_node_headroom_after_reports(self):
        sim = sim_with("first-fit", nodes=2)
        submit(sim, "a", 0.5, at_ms=1)
        sim.run_for(ms(120))  # at least two epochs of reports
        view = sim.broker.views["node00"]
        assert view.report is not None
        assert view.headroom == view.report.snapshot.headroom
        assert abs(view.headroom - (0.96 - 0.5)) < 1e-9
        assert sim.broker.views["node01"].headroom == 0.96
