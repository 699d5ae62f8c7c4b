"""Hierarchical chunk shipping: node arenas -> rack collectors -> root.

Arenas flush as *seq-numbered columnar chunks*: each epoch a
:class:`ChunkShipper` cuts everything its node's arena appended since
the previous cut and sends it — over whatever lossy transport the
caller provides — to the node's rack collector.  Rack collectors batch
the node chunks they actually received into rack chunks (their own seq
stream) and forward them to the root.

Sequence numbers make loss *visible* (a gap at any tier is a counted
lost chunk), and the cumulative per-kind counters riding in every
chunk make row loss *exact*: the root derives dropped rows per kind as
``emitted - sampled_out - delivered`` from the freshest counters it
saw, so a dropped chunk subtracts from `delivered` without anyone
having to see it (:mod:`repro.obs.pipeline.aggregate`).

This module is transport-agnostic: a "bus" is anything with
``send(src, dst, kind, payload, now)``.  The cluster layer supplies a
dedicated telemetry-plane :class:`~repro.sim.messages.MessageBus`
(:mod:`repro.cluster.obs_pipeline`) so shipping traffic shares the
network's loss model without perturbing the main run's artifacts.
"""

from __future__ import annotations

from repro.obs.pipeline.arena import EventArena

#: Bus message kind for node -> rack chunks.
OBS_CHUNK = "obs-chunk"

#: Bus message kind for rack -> root batches.
OBS_RACK_CHUNK = "obs-rack-chunk"

#: The aggregation root's bus endpoint name.
OBS_ROOT = "obs-root"


class SeqTracker:
    """Per-sender sequence bookkeeping tolerant of jitter reordering.

    The transport can invert neighbouring chunks (per-message jitter),
    so a collector cannot treat ``seq <= max_seen`` as stale: a late
    chunk that *fills a gap* is accepted, only a true duplicate is
    rejected.  ``missing`` is exactly the set of gaps still open, so
    ``lost()`` is an exact count the moment the stream goes quiet.
    """

    __slots__ = ("max_seq", "missing")

    def __init__(self) -> None:
        self.max_seq: int | None = None
        self.missing: set[int] = set()

    def accept(self, seq: int) -> bool:
        """True when ``seq`` is new (first sight); False on duplicates."""
        if self.max_seq is None:
            self.missing.update(range(seq))
            self.max_seq = seq
            return True
        if seq > self.max_seq:
            self.missing.update(range(self.max_seq + 1, seq))
            self.max_seq = seq
            return True
        if seq in self.missing:
            self.missing.discard(seq)
            return True
        return False

    def received(self) -> int:
        """Chunks accepted so far."""
        if self.max_seq is None:
            return 0
        return self.max_seq + 1 - len(self.missing)

    def lost(self) -> int:
        """Open gaps (chunks sent before ``max_seq`` that never came)."""
        return len(self.missing)


class ChunkShipper:
    """Flushes one node's arena to its rack as seq-numbered chunks."""

    def __init__(
        self,
        arena: EventArena,
        bus,
        rack: str,
        max_chunk_events: int | None = None,
    ) -> None:
        self.arena = arena
        self.bus = bus
        self.rack = rack
        self.max_chunk_events = max_chunk_events
        #: Chunks cut so far == the next chunk's sequence number.
        self.seq = 0

    def flush(self, now: int) -> dict:
        """Cut a chunk and send it; returns the chunk (even if empty).

        Empty chunks are still shipped: they carry the cumulative
        counters and keep the seq stream gap-free, so a quiet node is
        distinguishable from a node whose chunks are all being dropped.
        """
        order, cum = self.arena.cut(self.max_chunk_events)
        chunk = {
            "node": self.arena.node,
            "seq": self.seq,
            "time": now,
            "count": len(order),
            "order": order,
            "cum": cum,
        }
        self.seq += 1
        self.bus.send(self.arena.node, self.rack, OBS_CHUNK, chunk, now)
        return chunk


class RackCollector:
    """One rack's aggregation point: batches node chunks toward the root.

    Tracks per-node sequence numbers (:class:`SeqTracker`) so a
    jitter-reordered late chunk is forwarded and a true duplicate is
    absorbed silently, matching the idempotency rules everywhere else
    in the cluster.  Loss is counted end to end at the root, not here.
    """

    def __init__(self, name: str, bus) -> None:
        self.name = name
        self.bus = bus
        self.seq = 0
        #: node -> sequence bookkeeping for the node->rack hop.
        self.trackers: dict[str, SeqTracker] = {}
        #: node chunks received since the last flush.
        self.pending: list[dict] = []

    def on_chunk(self, chunk: dict) -> bool:
        """Ingest one node chunk; False when dropped as a duplicate."""
        node = chunk["node"]
        tracker = self.trackers.get(node)
        if tracker is None:
            tracker = self.trackers[node] = SeqTracker()
        if not tracker.accept(chunk["seq"]):
            return False
        self.pending.append(chunk)
        return True

    def flush(self, now: int) -> dict:
        """Batch everything received since the last flush toward root."""
        batch = {
            "rack": self.name,
            "seq": self.seq,
            "time": now,
            "chunks": self.pending,
        }
        self.pending = []
        self.seq += 1
        self.bus.send(self.name, OBS_ROOT, OBS_RACK_CHUNK, batch, now)
        return batch
