"""The cluster's telemetry plane: shipping arenas up the node->rack->root tree.

:class:`PipelineShipping` owns everything the hierarchical event
pipeline needs inside a :class:`~repro.cluster.simulation.ClusterSimulation`:

* a *dedicated* :class:`~repro.sim.messages.MessageBus` (its own rng
  stream, same latency/jitter/drop model as the main bus) so shipping
  chunks share the network's loss characteristics without adding a
  single RpcEvent or rng draw to the main run — shipping never shows
  up in the run's own event stream;
* one :class:`~repro.obs.pipeline.ship.ChunkShipper` per node, flushed
  every epoch, shipping to the node's rack collector (``rack00`` holds
  ``node00..node03``, and so on);
* the rack collectors, flushed every epoch toward ``obs-root``;
* the :class:`~repro.obs.pipeline.aggregate.RootCollector`.

Events emitted *at* the broker/root itself (empty node name: bus RPC
hops, admission decisions, migrations) never cross the network — they
loop back into the root directly, a lossless local hop, so the root's
accounting still covers every kind emitted anywhere.
"""

from __future__ import annotations

from repro.obs.pipeline.aggregate import RootCollector
from repro.obs.pipeline.ship import (
    OBS_CHUNK,
    OBS_ROOT,
    ChunkShipper,
    RackCollector,
)
from repro.sim.messages import MessageBus
from repro.sim.rng import RngRegistry

#: Nodes per rack collector in the aggregation tree.
RACK_SIZE = 4

#: A delivery horizon beyond any run: pop_due(_FOREVER) drains the bus.
_FOREVER = 1 << 62


class _RootLoopback:
    """A zero-loss local 'transport' for chunks born at the root."""

    def __init__(self, root: RootCollector) -> None:
        self.root = root

    def send(self, src: str, dst: str, kind: str, payload: object, now: int) -> None:
        self.root.on_node_chunk(payload)


class PipelineShipping:
    """The live telemetry tree for one cluster simulation."""

    def __init__(
        self,
        session,
        rngs: RngRegistry,
        nodes: list[str],
        latency_ticks: int = 0,
        jitter_ticks: int = 0,
        drop_rate: float = 0.0,
        max_chunk_events: int | None = None,
    ) -> None:
        self.session = session
        self.max_chunk_events = max_chunk_events
        self.bus = MessageBus(
            rngs.stream("cluster.obs.pipeline"),
            latency_ticks=latency_ticks,
            jitter_ticks=jitter_ticks,
            drop_rate=drop_rate,
        )
        # The plane is deliberately uninstrumented (bus.obs stays None):
        # telemetry about shipping telemetry would feed back into the
        # arenas it ships and change the main artifacts.
        self.root = RootCollector()
        self._loopback = _RootLoopback(self.root)
        self.racks: dict[str, RackCollector] = {}
        self.rack_of: dict[str, str] = {}
        self.shippers: dict[str, ChunkShipper] = {}
        self._finalized = False
        for index, node in enumerate(sorted(nodes)):
            rack_name = f"rack{index // RACK_SIZE:02d}"
            if rack_name not in self.racks:
                self.racks[rack_name] = RackCollector(rack_name, self.bus)
            self.rack_of[node] = rack_name
            self.shippers[node] = ChunkShipper(
                session.bus.arena(node),
                self.bus,
                rack_name,
                max_chunk_events=max_chunk_events,
            )
        session.shipping = self

    # -- the simulation's hooks --------------------------------------------
    # ``ClusterSimulation`` runs every node to ``now`` before an epoch's
    # cuts; a chunk delivery on this plane runs no node.

    def on_epoch(self, now: int) -> None:
        """Flush every tier: node arenas to racks, racks to the root.

        Chunks cut now arrive a bus latency later, so a rack's flush
        carries the chunks delivered *before* this epoch — the tree has
        one epoch of pipelining, like any real collector fan-in.
        Arenas that appeared since the last epoch (the broker's "" scope
        on first cluster traffic) get a lossless loopback shipper.
        """
        for node in sorted(self.session.bus.arenas):
            if node not in self.shippers:
                # Root-local scope: never crosses the network.
                self.shippers[node] = ChunkShipper(
                    self.session.bus.arena(node),
                    self._loopback,
                    OBS_ROOT,
                    max_chunk_events=self.max_chunk_events,
                )
        for node in sorted(self.shippers):
            self.shippers[node].flush(now)
        for rack in sorted(self.racks):
            self.racks[rack].flush(now)

    def route(self, now: int) -> None:
        """Deliver every due envelope on the telemetry plane."""
        self._dispatch(self.bus.pop_due(now))

    def _dispatch(self, envelopes) -> None:
        for envelope in envelopes:
            if envelope.dst == OBS_ROOT:
                self.root.on_rack_batch(envelope.payload)
            elif envelope.kind == OBS_CHUNK:
                self.racks[envelope.dst].on_chunk(envelope.payload)

    def next_time(self) -> int | None:
        return self.bus.next_time()

    def finalize(self, now: int) -> None:
        """Graceful collector drain before artifacts are written.

        Cuts every arena one last time and delivers everything still in
        flight (drop decisions were already made at send time, so a
        lossy plane stays lossy) — after this, ``dropped`` in the
        accounting means *genuinely lost*, not merely not-yet-arrived.
        Idempotent; :meth:`repro.obs.session.ObsSession.write` calls it.
        """
        if self._finalized:
            return
        self._finalized = True
        self.on_epoch(now)
        self._dispatch(self.bus.pop_due(_FOREVER))
        for name in sorted(self.racks):
            rack = self.racks[name]
            if rack.pending:
                rack.flush(now)
        self._dispatch(self.bus.pop_due(_FOREVER))

    # -- accounting ----------------------------------------------------------

    def accounting(self) -> dict:
        """Exact end-of-run loss accounting (ground truth from arenas)."""
        return self.root.accounting(
            truth=self.session.bus.cum(),
            chunks_sent={
                node: shipper.seq for node, shipper in self.shippers.items()
            },
        )

    def summary(self) -> str:
        acc = self.accounting()
        totals = acc["totals"]
        chunks = acc["chunks"]
        return (
            f"pipeline: {totals['delivered']}/{totals['emitted']} events "
            f"delivered to root ({totals['dropped']} dropped, "
            f"{totals['sampled_out']} sampled out), "
            f"{chunks['node_delivered']}/{chunks['node_sent']} chunks, "
            f"{chunks['rack_batches_lost']} rack batches lost"
        )
