"""Per-node telemetry shipping for the cluster layer.

A cluster run with an :class:`~repro.obs.session.ObsSession` attached
already derives every node's metrics in one shared registry — but
the *broker* must not read that registry directly: a real broker only
knows what arrives over the wire.  :class:`NodeTelemetry` cuts one
node's slice of the session's registry into a
:class:`~repro.obs.analysis.telemetry.TelemetrySnapshot` and the
simulation ships it to the broker as an ordinary ``telemetry`` message
on the :class:`~repro.sim.messages.MessageBus` — subject to the same
simulated latency, jitter, and drops as admission RPCs.  The broker
feeds what survives into its
:class:`~repro.obs.analysis.telemetry.TelemetryAggregator`, from which
AIMD placement weights can be driven by *observed* load instead of the
nodes' self-reports.
"""

from __future__ import annotations

from repro.obs.analysis.telemetry import TelemetrySnapshot, snapshot_registry


class NodeTelemetry:
    """Cuts per-node snapshots from the session's shared registry.

    Reading ``session.registry`` catches the metrics up to the event
    stream first, so a snapshot reflects everything emitted before it.
    ``seq`` increases once per snapshot, so the broker's aggregator can
    discard reordered or duplicated deliveries deterministically.
    """

    def __init__(self, node: str, session) -> None:
        self.node = node
        self.session = session
        self.seq = 0

    def snapshot(self, now: int) -> TelemetrySnapshot:
        self.seq += 1
        return snapshot_registry(
            self.session.registry,
            self.node,
            now,
            seq=self.seq,
            node_filter=self.node,
        )
