"""Cluster-level reporting: per-node and aggregate metrics.

Two consumers, two shapes:

* :func:`cluster_metrics_json` — a canonical JSON document (sorted
  keys, stable field set, no wall-clock anything) so two runs with the
  same seed produce **byte-identical** exports; CI diffs them to gate
  determinism.
* :func:`cluster_report` — the human-readable run report printed by
  ``python -m repro.cli cluster``.

Both are derived purely from the simulation's own state: node traces
(via :mod:`repro.metrics`), broker books, and bus counters.
"""

from __future__ import annotations

import json

from repro.cluster.simulation import EPOCH_TICKS, ClusterSimulation
from repro.metrics import miss_rate


def _node_payload(sim: ClusterSimulation, name: str) -> dict:
    node = sim.nodes[name]
    snapshot = node.rd.capacity_snapshot()
    sanitizer = node.rd.sanitizer
    return {
        "tasks": sorted(node.tasks),
        "admitted": snapshot.admitted,
        "quiescent": snapshot.quiescent,
        "degraded": snapshot.degraded,
        "committed": round(snapshot.committed, 9),
        "headroom": round(snapshot.headroom, 9),
        "qos_fraction": round(snapshot.qos_fraction, 9),
        "qos_levels": [list(pair) for pair in snapshot.qos_levels],
        "misses": len(node.rd.trace.misses()),
        "miss_rate": round(miss_rate(node.rd.trace), 9),
        "weight": round(sim.broker.views[name].weight, 9),
        "sanitizer": None
        if sanitizer is None
        else {
            "ok": sanitizer.ok,
            "violations": len(sanitizer.report.violations),
            "decisions": sanitizer.decisions_checked,
            "grant_sets": sanitizer.grant_sets_checked,
            "periods": sanitizer.periods_checked,
        },
    }


def cluster_metrics(sim: ClusterSimulation) -> dict:
    """The full metrics document as a plain dict."""
    broker = sim.broker
    stats = broker.stats
    nodes = {name: _node_payload(sim, name) for name in sorted(sim.nodes)}
    total_admitted = sum(n["admitted"] for n in nodes.values())
    qos_weighted = sum(n["qos_fraction"] * n["admitted"] for n in nodes.values())
    return {
        "config": {
            "seed": sim.seed,
            "nodes": len(sim.nodes),
            "policy": sim.policy.name,
            "horizon": sim.horizon,
            "epoch_ticks": EPOCH_TICKS,
            "latency_ticks": sim.bus.latency_ticks,
            "jitter_ticks": sim.bus.jitter_ticks,
            "drop_rate": sim.bus.drop_rate,
        },
        "broker": {
            "submitted": stats.submitted,
            "admitted": stats.admitted,
            "denied": stats.denied,
            "retries": stats.retries,
            "timeouts": stats.timeouts,
            "withdrawals": stats.withdrawals,
            "migrations_started": stats.migrations_started,
            "migrations_completed": stats.migrations_completed,
            "migrations_failed": stats.migrations_failed,
            "admission_rate": round(
                stats.admitted / stats.submitted if stats.submitted else 1.0, 9
            ),
            "placements": {
                task: {"node": p.node, "migrations": p.migrations}
                for task, p in sorted(broker.placements.items())
            },
            "denials": [list(d) for d in broker.denials],
        },
        "bus": {
            "sent": sim.bus.stats.sent,
            "delivered": sim.bus.stats.delivered,
            "dropped": sim.bus.stats.dropped,
        },
        "cluster": {
            "tasks_placed": total_admitted,
            "delivered_qos": round(
                qos_weighted / total_admitted if total_admitted else 1.0, 9
            ),
            "total_misses": sum(n["misses"] for n in nodes.values()),
            "sanitizers_ok": all(
                n["sanitizer"] is None or n["sanitizer"]["ok"] for n in nodes.values()
            ),
        },
        "nodes": nodes,
    }


def cluster_metrics_json(sim: ClusterSimulation) -> str:
    """Canonical JSON export: sorted keys, stable shape, seed-determined.

    Running the same scenario twice with the same seed must produce a
    byte-identical string — CI enforces exactly that.
    """
    return json.dumps(cluster_metrics(sim), indent=2, sort_keys=True) + "\n"


def cluster_report(sim: ClusterSimulation) -> str:
    """Human-readable cluster run report."""
    doc = cluster_metrics(sim)
    broker, bus, agg = doc["broker"], doc["bus"], doc["cluster"]
    lines = [
        "Cluster run report",
        "==================",
        f"nodes: {doc['config']['nodes']}   policy: {doc['config']['policy']}   "
        f"seed: {doc['config']['seed']}",
        f"bus: {bus['sent']} sent, {bus['delivered']} delivered, "
        f"{bus['dropped']} dropped "
        f"(latency {doc['config']['latency_ticks']} ticks, "
        f"drop rate {doc['config']['drop_rate']:.1%})",
        "",
        f"admission: {broker['admitted']}/{broker['submitted']} admitted "
        f"({broker['admission_rate']:.1%}), {broker['denied']} denied, "
        f"{broker['retries']} retries, {broker['timeouts']} timeouts",
        f"migration: {broker['migrations_completed']} completed / "
        f"{broker['migrations_started']} started "
        f"({broker['migrations_failed']} failed)",
        f"cluster QOS: {agg['delivered_qos']:.1%} of requested maxima "
        f"across {agg['tasks_placed']} placed tasks; "
        f"{agg['total_misses']} missed deadlines",
        "",
        "per node:",
    ]
    for name, n in doc["nodes"].items():
        sanitizer = n["sanitizer"]
        status = (
            "sanitizer off"
            if sanitizer is None
            else ("clean" if sanitizer["ok"] else f"{sanitizer['violations']} VIOLATIONS")
        )
        lines.append(
            f"  {name}: {n['admitted']} tasks "
            f"(degraded {n['degraded']}), committed {n['committed']:.1%}, "
            f"headroom {n['headroom']:.1%}, qos {n['qos_fraction']:.1%}, "
            f"weight {n['weight']:.2f}, misses {n['misses']}, {status}"
        )
    for task, placement in doc["broker"]["placements"].items():
        migrated = (
            f" ({placement['migrations']} migrations)"
            if placement["migrations"]
            else ""
        )
        lines.append(f"    task {task} -> {placement['node']}{migrated}")
    return "\n".join(lines) + "\n"
