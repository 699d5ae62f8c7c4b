#!/usr/bin/env python3
"""A rack of set-top boxes behind one admission broker.

Four Resource Distributor nodes run in lockstep; a cluster broker
places each set-top-box session (MPEG video + AC-3 audio) on a node,
adjusts per-node weights from periodic load reports, and migrates a
task if a node stays overloaded.  The message layer between broker and
nodes has configurable latency and (optionally) drops, yet the run is
fully deterministic: the same seed always produces byte-identical
metrics JSON — the CI determinism gate runs this script twice and
compares the bytes.

Run:  python examples/cluster_rack.py [--seed N] [--drop-rate R] [--json]
      python examples/cluster_rack.py --obs-out /tmp/rack-obs
"""

import argparse

from repro.cluster import cluster_metrics_json, cluster_report
from repro.obs.session import ObsSession
from repro.scenarios import cluster_rack


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--nodes", type=int, default=4)
    parser.add_argument("--policy", default="aimd")
    parser.add_argument("--drop-rate", type=float, default=0.1)
    parser.add_argument(
        "--json", action="store_true", help="emit canonical metrics JSON only"
    )
    parser.add_argument(
        "--obs-out",
        metavar="DIR",
        help="write the obs artifacts (events.jsonl, metrics.prom, "
        "trace.perfetto.json, events.col.json, pipeline.{json,prom}) to DIR",
    )
    args = parser.parse_args()

    session = ObsSession() if args.obs_out else None
    sim = cluster_rack(
        seed=args.seed,
        nodes=args.nodes,
        policy=args.policy,
        drop_rate=args.drop_rate,
        obs=session,
    )
    sim.run_until(sim.horizon)

    if session is not None:
        for path in session.write(args.obs_out, sim.now).values():
            print(f"wrote {path}")
        print(session.summary())

    if args.json:
        print(cluster_metrics_json(sim), end="")
    else:
        print(cluster_report(sim))
    return 0 if all(
        node.rd.sanitizer is None or node.rd.sanitizer.ok
        for node in sim.nodes.values()
    ) else 1


if __name__ == "__main__":
    raise SystemExit(main())
