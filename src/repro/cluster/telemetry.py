"""The observed-load signal: four scalars per node per epoch.

A cluster run with an :class:`~repro.obs.session.ObsSession` attached
already derives every node's metrics in one shared registry — but the
*broker* must not read that registry directly: a real broker only knows
what arrives over the wire.  Each epoch :class:`NodeTelemetry` reads its
own node's load signal
(:meth:`~repro.obs.session.ObsSession.load_signal`) into a
:class:`TelemetrySnapshot` and the simulation ships it to the broker as
an ordinary ``telemetry`` message on the
:class:`~repro.sim.messages.MessageBus` — subject to the same simulated
latency, jitter, and drops as admission RPCs.  The broker feeds what
survives into its :class:`TelemetryAggregator`, which turns the
cumulative miss count into a per-arrival delta, so AIMD placement
weights can be driven by *observed* load instead of the nodes'
self-reports.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TelemetrySnapshot:
    """One node's load signal at one sim tick, as shipped to the broker."""

    node: str
    time: int
    #: Monotonic per-node sequence number, so the aggregator can drop
    #: reordered/duplicated deliveries deterministically.
    seq: int
    #: Deadline misses since the start of the run (cumulative).
    misses: int
    qos_fraction: float
    degraded: int
    headroom: float


@dataclass(frozen=True)
class ObservedLoad:
    """The load signal the broker derives from a node's telemetry."""

    node: str
    time: int
    #: Deadline misses since the previously ingested snapshot.
    misses_delta: int
    qos_fraction: float
    degraded: int
    headroom: float

    @property
    def overloaded(self) -> bool:
        return self.misses_delta > 0 or self.qos_fraction < 1.0


class NodeTelemetry:
    """Cuts one node's snapshots from the session's metrics.

    ``seq`` increases once per snapshot, so the broker's aggregator can
    discard reordered or duplicated deliveries deterministically.
    """

    def __init__(self, node: str, session) -> None:
        self.node = node
        self.session = session
        self.seq = 0

    def snapshot(self, now: int) -> TelemetrySnapshot:
        self.seq += 1
        return TelemetrySnapshot(
            self.node, now, self.seq, *self.session.load_signal(self.node)
        )


class TelemetryAggregator:
    """Per-node latest snapshots plus the deltas the broker acts on.

    ``ingest`` keeps the newest snapshot per node (by sequence number,
    so a delayed duplicate delivery cannot roll state backwards) and
    the miss count of the one it replaced.  ``observed_load`` answers
    "how is this node actually doing" from those measurements.
    """

    def __init__(self) -> None:
        self._latest: dict[str, TelemetrySnapshot] = {}
        #: node -> cumulative misses in the snapshot ``_latest`` replaced.
        #: A lost snapshot never lands here, so the delta after a gap
        #: spans every epoch since the last one that arrived.
        self._misses_before: dict[str, int] = {}
        self.ingested = 0
        self.rejected_stale = 0

    def ingest(self, snapshot: TelemetrySnapshot) -> bool:
        """Accept a snapshot; False if an equal-or-newer one is held."""
        current = self._latest.get(snapshot.node)
        if current is not None:
            if snapshot.seq <= current.seq:
                self.rejected_stale += 1
                return False
            self._misses_before[snapshot.node] = current.misses
        self._latest[snapshot.node] = snapshot
        self.ingested += 1
        return True

    def observed_load(
        self, node: str, now: int | None = None, staleness: int | None = None
    ) -> ObservedLoad | None:
        """The node's measured load; None when unknown or too stale.

        ``staleness`` (sim ticks) bounds how old the latest snapshot
        may be relative to ``now``; omit both to accept any age.
        """
        latest = self._latest.get(node)
        if latest is None:
            return None
        if (
            now is not None
            and staleness is not None
            and now - latest.time > staleness
        ):
            return None
        return ObservedLoad(
            node=node,
            time=latest.time,
            misses_delta=latest.misses - self._misses_before.get(node, 0),
            qos_fraction=latest.qos_fraction,
            degraded=latest.degraded,
            headroom=latest.headroom,
        )
