"""The aggregation root: exact loss accounting over delivered chunks.

The :class:`RootCollector` sits at the top of the node -> rack -> root
tree.  It ingests rack batches, tracks every tier's sequence numbers,
and counts the delivered rows — the payload itself is dropped on
ingest; the ``events.*`` artifacts are written from the session's
arenas, not from here — so at the end of a run it can answer two
questions exactly:

* **what arrived** — delivered chunks per node and rows per kind;
* **what did not** — per kind and per node:
  ``dropped = emitted - sampled_out - delivered``, where ``emitted``
  and ``sampled_out`` come from the freshest cumulative counters (the
  arena's ground truth at finalization, or the latest chunk's ``cum``
  for a live view), so rows inside dropped chunks are counted without
  ever being seen.  Ring overwrites at the arena are reported inside
  ``dropped`` as the ``overwritten`` sub-count.

The invariant the property suite holds, per kind and in total::

    emitted == delivered + dropped + sampled_out
"""

from __future__ import annotations

from repro.obs.pipeline.ship import SeqTracker

#: Accounting counter names, in the order reports list them.
LOSS_COUNTERS = ("emitted", "delivered", "dropped", "sampled_out", "overwritten")


class RootCollector:
    """Top of the telemetry tree: ingests rack batches, accounts loss."""

    def __init__(self) -> None:
        self.rack_trackers: dict[str, SeqTracker] = {}
        self.rack_batches = 0
        #: node -> end-to-end chunk bookkeeping (accepted count, gaps).
        self.node_trackers: dict[str, SeqTracker] = {}
        #: node -> (seq, cumulative counters) from the freshest chunk.
        self.latest_cum: dict[str, tuple[int, dict]] = {}
        #: node -> kind -> rows that actually arrived here.
        self.delivered: dict[str, dict[str, int]] = {}

    @property
    def lost_rack_batches(self) -> dict[str, int]:
        return {
            rack: tracker.lost()
            for rack, tracker in sorted(self.rack_trackers.items())
            if tracker.lost()
        }

    # -- ingest ------------------------------------------------------------

    def on_rack_batch(self, batch: dict) -> None:
        rack = batch["rack"]
        tracker = self.rack_trackers.get(rack)
        if tracker is None:
            tracker = self.rack_trackers[rack] = SeqTracker()
        if not tracker.accept(batch["seq"]):
            return  # duplicate replay
        self.rack_batches += 1
        for chunk in batch["chunks"]:
            self.on_node_chunk(chunk)

    def on_node_chunk(self, chunk: dict) -> bool:
        """Count one node chunk's rows; False when it is a duplicate."""
        node = chunk["node"]
        seq = chunk["seq"]
        tracker = self.node_trackers.get(node)
        if tracker is None:
            tracker = self.node_trackers[node] = SeqTracker()
        if not tracker.accept(seq):
            return False
        latest = self.latest_cum.get(node)
        if latest is None or seq > latest[0]:
            self.latest_cum[node] = (seq, chunk["cum"])
        counts = self.delivered.setdefault(node, {})
        for tag in chunk["order"]:
            counts[tag] = counts.get(tag, 0) + 1
        return True

    # -- loss accounting ----------------------------------------------------

    def accounting(
        self,
        truth: dict[str, dict] | None = None,
        chunks_sent: dict[str, int] | None = None,
    ) -> dict:
        """Exact per-kind / per-node loss accounting (JSON-able).

        ``truth`` maps node -> cumulative arena counters (from
        :meth:`repro.obs.pipeline.arena.ArenaBus.cum`); without it the
        freshest shipped counters stand in, making the result a live
        lower bound instead of ground truth.  ``chunks_sent`` maps node
        -> chunks actually cut (the shipper's seq), for chunk-level
        totals.
        """
        nodes_out: dict[str, dict] = {}
        kinds_out: dict[str, dict[str, int]] = {}
        all_nodes = set(self.delivered) | set(self.latest_cum)
        if truth:
            all_nodes |= set(truth)
        for node in sorted(all_nodes):
            if truth and node in truth:
                cum = truth[node]
            else:
                cum = self.latest_cum.get(node, (None, {}))[1]
            emitted = cum.get("emitted", {})
            sampled = cum.get("sampled_out", {})
            overwritten = cum.get("overwritten", {})
            delivered = self.delivered.get(node, {})
            node_kinds: dict[str, dict[str, int]] = {}
            for tag in sorted(set(emitted) | set(delivered)):
                e = emitted.get(tag, 0)
                s = sampled.get(tag, 0)
                o = overwritten.get(tag, 0)
                d = delivered.get(tag, 0)
                row = {
                    "emitted": e,
                    "delivered": d,
                    "dropped": e - s - d,
                    "sampled_out": s,
                    "overwritten": o,
                }
                node_kinds[tag] = row
                total = kinds_out.setdefault(
                    tag, {name: 0 for name in LOSS_COUNTERS}
                )
                for name in LOSS_COUNTERS:
                    total[name] += row[name]
            tracker = self.node_trackers.get(node)
            got = 0 if tracker is None else tracker.received()
            sent = (chunks_sent or {}).get(node)
            if sent is None:
                sent = 0 if tracker is None else tracker.max_seq + 1
            nodes_out[node] = {
                "kinds": node_kinds,
                "chunks": {"sent": sent, "delivered": got, "lost": sent - got},
            }
        totals = {name: 0 for name in LOSS_COUNTERS}
        for row in kinds_out.values():
            for name in LOSS_COUNTERS:
                totals[name] += row[name]
        chunk_totals = {
            "node_sent": sum(n["chunks"]["sent"] for n in nodes_out.values()),
            "node_delivered": sum(
                n["chunks"]["delivered"] for n in nodes_out.values()
            ),
            "node_lost": sum(n["chunks"]["lost"] for n in nodes_out.values()),
            "rack_batches_delivered": self.rack_batches,
            "rack_batches_lost": sum(self.lost_rack_batches.values()),
        }
        return {
            "nodes": nodes_out,
            "kinds": {tag: kinds_out[tag] for tag in sorted(kinds_out)},
            "totals": totals,
            "chunks": chunk_totals,
        }


def check_loss_invariant(accounting: dict) -> list[str]:
    """Violations of ``emitted == delivered + dropped + sampled_out``.

    Returns one message per broken kind (empty list == invariant
    holds); the property suite and the pipeline artifact writer both
    run this so a bookkeeping bug can never ship silent loss.
    """
    problems: list[str] = []
    scopes = [("total", accounting.get("kinds", {}))]
    for node, payload in accounting.get("nodes", {}).items():
        scopes.append((node, payload.get("kinds", {})))
    for scope, kinds in scopes:
        for tag, row in kinds.items():
            lhs = row["emitted"]
            rhs = row["delivered"] + row["dropped"] + row["sampled_out"]
            if lhs != rhs:
                problems.append(
                    f"{scope}/{tag}: emitted={lhs} != delivered+dropped+"
                    f"sampled_out={rhs}"
                )
            if row["overwritten"] > row["dropped"]:
                problems.append(
                    f"{scope}/{tag}: overwritten={row['overwritten']} exceeds "
                    f"dropped={row['dropped']}"
                )
    return problems
