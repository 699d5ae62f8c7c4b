"""Cluster determinism: same seed => byte-identical metrics, even lossy."""

import json

from repro import units
from repro.cluster import cluster_metrics, cluster_metrics_json, cluster_report
from repro.scenarios import cluster_rack


def run(seed=7, drop_rate=0.0, **kwargs):
    sim = cluster_rack(
        seed=seed, nodes=3, drop_rate=drop_rate, horizon_sec=0.5, **kwargs
    )
    sim.run_until(sim.horizon)
    return sim


class TestDeterminism:
    def test_same_seed_is_byte_identical(self):
        exports = [cluster_metrics_json(run(seed=7)) for _ in range(2)]
        assert exports[0] == exports[1]

    def test_same_seed_is_byte_identical_under_drops(self):
        exports = [cluster_metrics_json(run(seed=7, drop_rate=0.15)) for _ in range(2)]
        assert exports[0] == exports[1]

    def test_different_seeds_differ(self):
        assert cluster_metrics_json(run(seed=7, drop_rate=0.15)) != cluster_metrics_json(
            run(seed=8, drop_rate=0.15)
        )

    def test_export_is_valid_sorted_json(self):
        text = cluster_metrics_json(run(seed=7))
        doc = json.loads(text)
        assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == text


#: (time, request id, attempt, node) of every retransmission in
#: ``cluster_rack(seed=7, drop_rate=0.05)``, recorded at 34dfe56 while
#: the cadence still came from ``BackoffPolicy(factor=1.0)``: attempt
#: N fires RPC_TIMEOUT_TICKS (135,000) after attempt N-1.
RETRY_SCHEDULE_SEED_7 = [
    (2412000, "admit:stb03-audio:8", 2, "node03"),
    (5412000, "admit:stb07-audio:16", 2, "node03"),
    (5547000, "admit:stb07-audio:16", 3, "node03"),
    (17692029, "remove:stb09-video:36", 2, "node01"),
    (17827029, "remove:stb09-video:36", 3, "node01"),
    (18885000, "remove:stb04-audio:40", 2, "node00"),
    (19635000, "remove:stb08-audio:44", 2, "node00"),
    (19635000, "remove:stb08-video:43", 2, "node02"),
    (19770000, "remove:stb08-video:43", 3, "node02"),
    (23091545, "remove:stb10-video:50", 2, "node02"),
]


def test_retry_schedule_is_the_recorded_fixed_cadence():
    from repro.obs import ObsSession

    session = ObsSession()
    sim = cluster_rack(seed=7, drop_rate=0.05, obs=session)
    sim.run_until(sim.horizon)
    retries = [
        (e.time, e.request_id, e.attempt, e.dst)
        for e in session.bus.materialize()
        if e.type == "rpc" and e.action == "retry"
    ]
    assert retries == RETRY_SCHEDULE_SEED_7


class TestLossyGuarantees:
    def test_drops_cause_retries_but_no_broken_guarantees(self):
        """The acceptance bar: with drop-rate > 0 the broker retries (or
        times out), yet every admitted task still receives its grant in
        every period — the per-node sanitizers stay clean."""
        sim = run(seed=7, drop_rate=0.2)
        doc = cluster_metrics(sim)
        assert sim.bus.stats.dropped > 0
        assert sim.broker.stats.retries > 0
        assert doc["cluster"]["sanitizers_ok"] is True
        assert doc["cluster"]["total_misses"] == 0
        for node in sim.nodes.values():
            assert node.rd.sanitizer is not None
            assert node.rd.sanitizer.ok
            assert node.rd.trace.misses() == []

    def test_no_task_is_ever_double_placed(self):
        sim = run(seed=11, drop_rate=0.2)
        for task, placed in sim.broker.placements.items():
            holders = [n.name for n in sim.nodes.values() if n.has_task(task)]
            assert placed.node in holders

    def test_report_renders_under_loss(self):
        text = cluster_report(run(seed=7, drop_rate=0.2))
        assert "Cluster run report" in text
        assert "retries" in text
