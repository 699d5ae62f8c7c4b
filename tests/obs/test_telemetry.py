"""Cluster telemetry: the four-scalar load signal, the aggregator's
staleness/ordering discipline, and the broker's observed-load AIMD."""

import dataclasses

import pytest

from repro.cluster.telemetry import (
    NodeTelemetry,
    ObservedLoad,
    TelemetryAggregator,
    TelemetrySnapshot,
)
from repro.errors import SimulationError
from repro.obs.events import (
    AdmissionEvent,
    GrantRecomputeEvent,
    PeriodCloseEvent,
)
from repro.obs.session import ObsSession


def recompute(session, node, time, qos=1.0, degraded=0, headroom=0.5):
    session.bus.emit(
        GrantRecomputeEvent(
            time=time,
            node=node,
            requests=2,
            granted=2,
            degraded=degraded,
            qos_fraction=qos,
            headroom=headroom,
        )
    )


def miss(session, node, time):
    session.bus.emit(
        PeriodCloseEvent(
            time=time, node=node, thread_id=1, period_index=0, missed=True
        )
    )


class TestSnapshot:
    def test_node_without_a_recompute_reads_full_qos_and_headroom(self):
        # The gauges answer 0 for a series never set; shipped as-is that
        # would read as total overload and halve the node's AIMD weight
        # in epoch 1.
        session = ObsSession()
        recompute(session, "n1", time=5, qos=0.5, headroom=0.1)
        cut = NodeTelemetry("n0", session).snapshot(now=10)
        assert cut == TelemetrySnapshot(
            node="n0", time=10, seq=1,
            misses=0, qos_fraction=1.0, degraded=0, headroom=1.0,
        )

    def test_node_filter_cuts_one_nodes_slice(self):
        # Mid-run: the snapshot is its own node's registry values as of
        # everything emitted so far, and nobody else's.
        session = ObsSession()
        recompute(session, "n0", time=10, qos=0.75, degraded=1, headroom=0.2)
        recompute(session, "n1", time=10, qos=0.25, degraded=3, headroom=0.0)
        miss(session, "n0", time=20)
        miss(session, "n0", time=30)
        for _ in range(7):
            miss(session, "n1", time=30)
        session.bus.emit(AdmissionEvent(time=40, node="n0", headroom=0.125))
        telemetry = NodeTelemetry("n0", session)
        cut = telemetry.snapshot(now=50)
        get = session.registry.get
        assert cut.misses == get("repro_deadline_misses_total").value(node="n0") == 2
        assert cut.qos_fraction == get("repro_qos_fraction").value(node="n0") == 0.75
        assert cut.degraded == get("repro_degraded_tasks").value(node="n0") == 1
        assert cut.headroom == get("repro_headroom_ratio").value(node="n0") == 0.125
        assert (cut.node, cut.time, cut.seq) == ("n0", 50, 1)
        assert telemetry.snapshot(now=60).seq == 2

    def test_snapshot_is_a_frozen_copy(self):
        session = ObsSession()
        miss(session, "n0", time=10)
        cut = NodeTelemetry("n0", session).snapshot(now=20)
        miss(session, "n0", time=30)
        assert session.load_signal("n0")[0] == 2
        assert cut.misses == 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            cut.misses = 5


def snap(node, time, seq=0, misses=0, qos=1.0, degraded=0, headroom=1.0):
    return TelemetrySnapshot(
        node=node, time=time, seq=seq,
        misses=misses, qos_fraction=qos, degraded=degraded, headroom=headroom,
    )


def observed(misses_delta=0, qos=1.0):
    return ObservedLoad(
        node="n", time=0,
        misses_delta=misses_delta, qos_fraction=qos, degraded=0, headroom=1.0,
    )


class TestAggregator:
    def test_stale_and_duplicate_sequences_are_rejected(self):
        agg = TelemetryAggregator()
        assert agg.ingest(snap("n0", time=100, seq=1))
        assert agg.ingest(snap("n0", time=200, seq=2))
        assert not agg.ingest(snap("n0", time=150, seq=1))  # reordered
        assert not agg.ingest(snap("n0", time=200, seq=2))  # duplicate
        assert (agg.ingested, agg.rejected_stale) == (2, 2)
        assert agg.observed_load("n0").time == 200

    def test_misses_delta_is_against_the_previous_snapshot(self):
        agg = TelemetryAggregator()
        agg.ingest(snap("n0", time=100, seq=1, misses=3))
        load = agg.observed_load("n0")
        assert load.misses_delta == 3  # first snapshot: delta from zero
        agg.ingest(snap("n0", time=200, seq=2, misses=5))
        load = agg.observed_load("n0")
        assert load.misses_delta == 2
        assert load.time == 200

    def test_lost_snapshot_widens_the_next_delta(self):
        # The delta is against the last snapshot that *arrived*, not
        # seq - 1: misses reported only in a dropped snapshot still
        # reach the broker with the next one.
        session = ObsSession()
        telemetry = NodeTelemetry("n0", session)
        agg = TelemetryAggregator()
        miss(session, "n0", time=10)
        agg.ingest(telemetry.snapshot(now=100))
        miss(session, "n0", time=110)
        miss(session, "n0", time=120)
        telemetry.snapshot(now=200)  # cut, then dropped by the bus
        miss(session, "n0", time=210)
        agg.ingest(telemetry.snapshot(now=300))
        assert agg.observed_load("n0").misses_delta == 3
        assert (agg.ingested, agg.rejected_stale) == (2, 0)

    def test_overloaded_signal(self):
        assert observed(misses_delta=1).overloaded
        assert observed(qos=0.9).overloaded
        assert not observed().overloaded

    def test_staleness_bound(self):
        agg = TelemetryAggregator()
        agg.ingest(snap("n0", time=100, seq=1))
        assert agg.observed_load("n0", now=150, staleness=100) is not None
        assert agg.observed_load("n0", now=300, staleness=100) is None
        assert agg.observed_load("unknown") is None


class TestMergeEdgeCases:
    """Delivery pathologies the bus makes routine: duplicated snapshots,
    collector restarts, and racks the collector only partially sees."""

    def test_duplicate_delivery_cannot_reset_the_miss_delta(self):
        agg = TelemetryAggregator()
        assert agg.ingest(snap("n0", time=100, seq=1, misses=3))
        assert agg.ingest(snap("n0", time=200, seq=2, misses=5))
        # The bus redelivers seq 2 (retry after a lost ack).  Accepted,
        # it would become its own baseline and hide the two misses.
        assert not agg.ingest(snap("n0", time=200, seq=2, misses=5))
        assert agg.observed_load("n0").misses_delta == 2

    def test_collector_restart_rejects_stale_seq(self):
        # A restarted collector has no seq memory; the first snapshot it
        # sees may be mid-stream.
        agg = TelemetryAggregator()
        assert agg.ingest(snap("n0", time=700, seq=7, misses=9))
        # A jitter-delayed snapshot cut before the restart lands later:
        # rejected, so state cannot roll backwards.
        assert not agg.ingest(snap("n0", time=500, seq=5, misses=6))
        assert agg.observed_load("n0").time == 700
        # First post-restart load has no previous: the delta is the full
        # cumulative count (conservative: restarts over-report, never
        # under-report, an overload).
        assert agg.observed_load("n0").misses_delta == 9
        # Once the stream resumes, deltas are against the restart
        # baseline, not zero.
        assert agg.ingest(snap("n0", time=800, seq=8, misses=11))
        assert agg.observed_load("n0").misses_delta == 2
        assert (agg.ingested, agg.rejected_stale) == (2, 1)


class TestPartialRackVisibility:
    """When only part of a rack's telemetry survives the bus, AIMD must
    move weights only for nodes whose snapshots are inside the staleness
    bound — a silent node's weight stays exactly where it was."""

    @staticmethod
    def make_broker():
        from repro.cluster.broker import ClusterBroker
        from repro.cluster.placement import make_policy
        from repro.sim.messages import MessageBus
        from repro.sim.rng import RngRegistry

        bus = MessageBus(RngRegistry(7).stream("bus"))
        broker = ClusterBroker(bus, {"n0": 1.0, "n1": 1.0}, make_policy("best-fit"))
        broker.telemetry_aimd = True
        return broker

    def test_silent_nodes_weight_does_not_move(self):
        broker = self.make_broker()
        before = {name: view.weight for name, view in broker.views.items()}
        # n0's telemetry arrives fresh and degraded; n1's was dropped.
        broker._on_telemetry(snap("n0", time=100, seq=1, qos=0.5), now=150)
        assert broker.views["n0"].weight < before["n0"]
        assert broker.views["n1"].weight == before["n1"]

    def test_stale_snapshot_is_ingested_but_not_acted_on(self):
        broker = self.make_broker()
        before = broker.views["n0"].weight
        # Delivered one tick past the staleness bound.  The aggregator
        # still keeps it (it is the freshest view of n0), but the
        # weight stays where it is.
        from repro.cluster.broker import TELEMETRY_STALENESS_TICKS

        late = 100 + TELEMETRY_STALENESS_TICKS + 1
        broker._on_telemetry(snap("n0", time=100, seq=1, qos=0.5), now=late)
        assert broker.telemetry.observed_load("n0") is not None
        assert broker.views["n0"].weight == before


class TestBrokerIntegration:
    @pytest.fixture(scope="class")
    def rack(self):
        from repro.scenarios import cluster_rack

        session = ObsSession()
        sim = cluster_rack(
            seed=0, horizon_sec=0.4, obs=session, telemetry=True
        )
        sim.run_until(sim.horizon)
        return sim

    def test_snapshots_flow_to_the_broker(self, rack):
        agg = rack.broker.telemetry
        assert agg.ingested > 0
        assert all(agg.observed_load(node) is not None for node in rack.nodes)

    def test_observed_load_reflects_measured_overload(self, rack):
        loads = [rack.broker.telemetry.observed_load(node) for node in rack.nodes]
        # The default rack oversubscribes: somebody is measurably degraded.
        assert any(load.qos_fraction < 1.0 for load in loads)

    def test_aimd_weights_follow_observed_load(self, rack):
        weights = {
            name: view.weight for name, view in rack.broker.views.items()
        }
        overloaded = {
            node
            for node in weights
            if (load := rack.broker.telemetry.observed_load(node))
            and load.qos_fraction < 1.0
        }
        healthy = set(weights) - overloaded
        assert overloaded and healthy
        assert max(weights[n] for n in overloaded) < min(
            weights[n] for n in healthy
        )

    def test_telemetry_requires_an_obs_session(self):
        from repro.scenarios import cluster_rack

        with pytest.raises(SimulationError, match="needs an ObsSession"):
            cluster_rack(seed=0, horizon_sec=0.1, telemetry=True)

    def test_telemetry_run_is_deterministic(self):
        from repro.scenarios import cluster_rack

        def run():
            session = ObsSession()
            sim = cluster_rack(
                seed=3, horizon_sec=0.2, obs=session, telemetry=True
            )
            sim.run_until(sim.horizon)
            weights = {
                name: view.weight for name, view in sim.broker.views.items()
            }
            return weights, session.events_jsonl()

        assert run() == run()
