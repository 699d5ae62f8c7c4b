"""Cluster placement policies on one seeded overload workload.

The same rack (3 nodes) and the same arrival script (MPEG decoders with
the real Table 2 multi-level resource list) are run once per placement
policy.  Two workload regimes:

* ``overload`` — more decoders than the rack's minima can hold, so the
  broker must deny some.  Every decoder has the *same* minimum entry,
  so the rack packs the same total count whatever the placement order:
  AIMD must admit at least as many as first-fit.
* ``imbalance`` — the rack can hold everyone, but first-fit crams node
  zero while feedback-weighted placement spreads the load; the grant
  sets then deliver visibly different aggregate QOS.

Timing (pytest-benchmark) covers the pure policy-ordering step — the
per-admission cost the broker adds on top of the node's own O(1)
admission test.
"""

from __future__ import annotations

import pytest

from repro import units
from repro.cluster import BrokerConfig, ClusterSimulation, NodeView, make_policy
from repro.cluster.report import cluster_metrics
from repro.config import ContextSwitchCosts, MachineConfig
from repro.tasks.mpeg import MpegDecoder

POLICIES = ("first-fit", "best-fit", "aimd")
QUIET = MachineConfig(switch_costs=ContextSwitchCosts.zero())


def run_rack(policy: str, decoders: int, seed: int = 7) -> dict:
    sim = ClusterSimulation(
        node_count=3,
        seed=seed,
        policy=policy,
        horizon=units.ms_to_ticks(500),
        machine=QUIET,
        broker_config=BrokerConfig(migrate=False),
    )
    stagger = units.ms_to_ticks(4)
    for i in range(decoders):
        decoder = MpegDecoder(f"mpeg{i:02d}")
        sim.submit_at(units.ms_to_ticks(1) + i * stagger, decoder.name, decoder.definition())
    sim.run_until(sim.horizon)
    doc = cluster_metrics(sim)
    return {
        "policy": policy,
        "submitted": doc["broker"]["submitted"],
        "admitted": doc["broker"]["admitted"],
        "denied": doc["broker"]["denied"],
        "admission_rate": doc["broker"]["admission_rate"],
        "delivered_qos": doc["cluster"]["delivered_qos"],
        "migrations": doc["broker"]["migrations_completed"],
        "per_node": {name: n["admitted"] for name, n in doc["nodes"].items()},
        "sanitizers_ok": doc["cluster"]["sanitizers_ok"],
    }


@pytest.fixture(scope="module")
def results() -> dict:
    return {
        # 18 decoders: minima alone want 18 x 16.7% = 3.0 racks' worth on
        # 3 x 96% of capacity — genuine overload.
        "overload": {p: run_rack(p, decoders=18) for p in POLICIES},
        # 12 decoders fit, but only if placement spreads them.
        "imbalance": {p: run_rack(p, decoders=12) for p in POLICIES},
    }


def test_cluster_overload_admission(results, report):
    overload = results["overload"]
    lines = ["Cluster placement — overload workload (18 decoders, 3 nodes)", ""]
    for policy in POLICIES:
        r = overload[policy]
        lines.append(
            f"  {policy:>9}: admitted {r['admitted']:2d}/{r['submitted']} "
            f"({r['admission_rate']:.0%}), qos {r['delivered_qos']:.1%}, "
            f"spread {sorted(r['per_node'].values())}"
        )
    report("cluster_overload_admission", "\n".join(lines))
    for policy in POLICIES:
        assert overload[policy]["sanitizers_ok"]
        assert overload[policy]["denied"] > 0  # genuinely overloaded
    # Uniform minima: feedback-weighted placement never packs worse than
    # first-fit — the acceptance bar for the AIMD policy.
    assert overload["aimd"]["admitted"] >= overload["first-fit"]["admitted"]


def test_cluster_imbalance_qos(results, report):
    imbalance = results["imbalance"]
    lines = ["Cluster placement — imbalance workload (12 decoders, 3 nodes)", ""]
    for policy in POLICIES:
        r = imbalance[policy]
        lines.append(
            f"  {policy:>9}: admitted {r['admitted']:2d}/{r['submitted']} "
            f"({r['admission_rate']:.0%}), qos {r['delivered_qos']:.1%}, "
            f"spread {sorted(r['per_node'].values())}"
        )
    report("cluster_imbalance_qos", "\n".join(lines))
    for policy in POLICIES:
        assert imbalance[policy]["admitted"] == 12  # everyone fits somewhere
    # Spreading the decoders leaves more nodes able to grant above the
    # minimum entry: AIMD's delivered QOS dominates first-fit's.
    assert imbalance["aimd"]["delivered_qos"] >= imbalance["first-fit"]["delivered_qos"]
    assert imbalance["aimd"]["admitted"] >= imbalance["first-fit"]["admitted"]


def test_policy_ordering_cost(benchmark):
    """The broker-side cost per admission: ranking the node views."""
    views = [
        NodeView(name=f"node{i:02d}", index=i, capacity=0.96, headroom=0.96 - 0.01 * i)
        for i in range(32)
    ]
    policy = make_policy("aimd")
    benchmark(lambda: policy.order(views, 0.167))
