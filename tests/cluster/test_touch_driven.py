"""The touch-driven cluster loop against the lockstep loop it replaced.

``ClusterSimulation`` runs a node's kernel only when something touches
the node — a bus delivery to it, an epoch, due external events — and
``run_until(t)`` returns with every node at ``t``.  The lockstep loop
(``repro.fuzz.reference.LockstepSimulation``) kept every node at every
global stop.  The nodes share nothing but messages, and a kernel's run does not depend on where
its horizon is cut, so the two must be the same run: per node the same
segments, switches, deadline records, blocks and grant changes; the
same broker placements, denials and stats and the same bus stats; the
same ``metrics.prom`` and ``pipeline.json``; the same ``events.jsonl``
lines (their order is the order nodes were run in, so it is not
compared); and the same ``cluster_metrics`` but for each node's count
of audited decisions — the lockstep loop re-audits a pick at every
stop it forces.  Every node is brought to ``sim.now`` before comparing.
"""

import json

import pytest

from repro import units
from repro.cluster import cluster_metrics
from repro.fuzz import generate, load_trace, scenario_seed
from repro.fuzz.inject import injector
from repro.fuzz.runner import build_cluster
from repro.obs import ObsSession
from repro.scenarios import cluster_rack
from repro.serve.engine import ServeEngine
from repro.fuzz.reference import lockstep
from tests.fuzz.test_corpus import CORPUS

TRACE_FIELDS = ("segments", "switches", "deadlines", "blocks", "grant_changes")


def node_runs(sim):
    """Per node, the five trace lists a run is judged by."""
    return {
        name: {field: getattr(node.rd.trace, field) for field in TRACE_FIELDS}
        for name, node in sorted(sim.nodes.items())
    }


def books(sim):
    """The broker's and the bus's books."""
    broker = sim.broker
    return (
        {
            name: (placed.node, placed.min_rate, placed.max_rate, placed.migrations)
            for name, placed in sorted(broker.placements.items())
        },
        list(broker.denials),
        broker.stats,
        sim.bus.stats,
    )


def metrics_doc(sim):
    doc = cluster_metrics(sim)
    for node in doc["nodes"].values():
        if node["sanitizer"] is not None:
            del node["sanitizer"]["decisions"]
    return doc


def artifacts(session, now, tmp_path):
    paths = session.write(tmp_path, now)
    lines = paths["events"].read_text().splitlines()
    return (
        sorted(lines),
        paths["metrics"].read_text(),
        paths["pipeline"].read_text(),
    )


def assert_same_cluster_run(shipped, reference, tmp_path, sessions=None):
    assert shipped.now == reference.now
    for sim in (shipped, reference):
        for node in sim.nodes.values():
            assert node.rd.now >= sim.now
    assert node_runs(shipped) == node_runs(reference)
    assert books(shipped) == books(reference)
    assert metrics_doc(shipped) == metrics_doc(reference)
    if sessions is not None:
        ours, theirs = sessions
        assert artifacts(ours, shipped.now, tmp_path / "shipped") == artifacts(
            theirs, reference.now, tmp_path / "lockstep"
        )


def run_spec_both(spec, tmp_path, inject=None, sanitize="strict"):
    """A fuzz cluster spec the way ``fuzz.runner`` runs it, observed,
    on both loops."""
    sims, sessions = [], []
    for reference in (False, True):
        session = ObsSession()
        sim = build_cluster(spec, injector(inject), obs=session, sanitize=sanitize)
        if reference:
            lockstep(sim)
        sim.run_until(spec.horizon_ticks)
        sim.settle()
        sim.run_until(sim.now)
        sims.append(sim)
        sessions.append(session)
    return sims, sessions


#: Campaign seed 0's generated cluster specs 0–15, and three later ones
#: whose late rollovers cover several boundaries in one scan: on them
#: the kernel must close due boundaries in boundary order, not thread
#: order, for a node's records not to depend on when it is looked at.
GENERATED = list(range(16)) + [41, 62]


@pytest.mark.parametrize("index", GENERATED)
def test_generated_cluster_spec(index, tmp_path):
    spec = generate(scenario_seed(0, index, cluster=True), cluster=True)
    (shipped, reference), sessions = run_spec_both(spec, tmp_path)
    assert_same_cluster_run(shipped, reference, tmp_path, sessions)


CLUSTER_ENTRIES = [
    path
    for path in sorted(CORPUS.glob("*.trace.json"))
    if load_trace(path).spec.cluster is not None
]


@pytest.mark.parametrize("path", CLUSTER_ENTRIES, ids=lambda p: p.stem)
def test_corpus_cluster_entry(path, tmp_path):
    """Each cluster entry's scenario, and — under its armed injection,
    in record mode — the same runs, with the same first violation.  An
    armed bad pick is audited at every stop, so the lockstep loop
    records it more often: what the sanitizers counted is not compared
    there."""
    trace = load_trace(path)
    (shipped, reference), sessions = run_spec_both(trace.spec, tmp_path)
    assert_same_cluster_run(shipped, reference, tmp_path, sessions)
    if trace.inject is None:
        return
    (shipped, reference), _ = run_spec_both(
        trace.spec, tmp_path, inject=trace.inject, sanitize="record"
    )
    assert node_runs(shipped) == node_runs(reference)
    assert books(shipped) == books(reference)
    firsts = [
        [
            node.rd.sanitizer.report.violations[:1]
            for _, node in sorted(sim.nodes.items())
        ]
        for sim in (shipped, reference)
    ]
    assert firsts[0] == firsts[1] and any(firsts[0])


def rack_both(step_ms=None, **options):
    sims, sessions = [], []
    for reference in (False, True):
        session = ObsSession()
        sim = cluster_rack(obs=session, **options)
        if reference:
            lockstep(sim)
        if step_ms is None:
            sim.run_until(sim.horizon)
        else:
            while sim.now < sim.horizon:
                sim.run_until(min(sim.horizon, sim.now + units.ms_to_ticks(step_ms)))
        sims.append(sim)
        sessions.append(session)
    return sims, sessions


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_cluster_rack(seed, tmp_path):
    """As ``run --scenario cluster_rack --duration-ms 400`` runs it."""
    (shipped, reference), sessions = rack_both(
        seed=seed, horizon_sec=0.4, obs_pipeline=True
    )
    assert_same_cluster_run(shipped, reference, tmp_path, sessions)


def test_observed_rack_in_10ms_steps(tmp_path):
    """The benchmark's observed rack — 16 nodes, a lossy bus, telemetry
    driving AIMD, the shipping plane — advanced 10 ms at a time."""
    (shipped, reference), sessions = rack_both(
        step_ms=10,
        seed=0,
        nodes=16,
        drop_rate=0.02,
        horizon_sec=0.3,
        telemetry=True,
        obs_pipeline=True,
    )
    assert_same_cluster_run(shipped, reference, tmp_path, sessions)


def test_serve_engine_commits(tmp_path):
    """The serving layer advances the cluster only through ``settle``
    and ``drain``: group commits of admits and withdrawals, then a
    drain, give the same books and the same node runs."""
    engines = []
    for reference in (False, True):
        engine = ServeEngine(nodes=4, seed=3, migrate=True)
        if reference:
            lockstep(engine.sim)
        for i in range(12):
            engine.commit(
                [
                    {"op": "submit", "spec": {"name": f"t{i}a", "period_ms": 10, "rate": 0.2}},
                    {"op": "submit", "spec": {"name": f"t{i}b", "period_ms": 30, "rate": 0.15}},
                ]
            )
            if i % 3 == 2:
                engine.remove(f"t{i - 2}a")
        engine.drain()
        engines.append(engine)
    shipped, reference = engines
    assert shipped.state_digest() == reference.state_digest()
    assert json.dumps(shipped.oplog) == json.dumps(reference.oplog)
    assert_same_cluster_run(
        shipped.sim, reference.sim, tmp_path, (shipped.session, reference.session)
    )
