"""repro.obs.pipeline: columnar arenas, chunk shipping, causal queries.

The storage and transport tier of the obs stack.  Four pieces, each
importable on its own:

* :mod:`~repro.obs.pipeline.arena` — ring-buffered struct-of-arrays
  event storage (:class:`EventArena`) behind a drop-in bus
  (:class:`ArenaBus`): no per-event object allocation on the hot path.
* :mod:`~repro.obs.pipeline.ship` — arenas flush as seq-numbered
  columnar chunks through a node -> rack -> root aggregation tree over
  a lossy transport, with deterministic head/tail sampling.
* :mod:`~repro.obs.pipeline.aggregate` — the root collector and its
  exact loss accounting (``emitted == delivered + dropped +
  sampled_out``, per kind, never silent).
* :mod:`~repro.obs.pipeline.query` / :mod:`~repro.obs.pipeline.explain`
  — offline queries over recorded artifacts, including the causal
  chain behind a specific deadline miss.  Import these two by module:
  they pull in :mod:`repro.obs.analysis`, which every ``import repro``
  would otherwise pay for through the session.

:class:`repro.obs.session.ObsSession` records into an
:class:`ArenaBus` and derives every artifact from it.

Layering: ``repro.core`` and ``repro.sim`` emit through the duck-typed
bus they are handed and must never import this package (tier-1's
import-graph test enforces it); the package itself only sees abstract
transports (the cluster layer owns the actual MessageBus plane).
"""

from repro.obs.pipeline.aggregate import (
    LOSS_COUNTERS,
    RootCollector,
    check_loss_invariant,
)
from repro.obs.pipeline.arena import ArenaBus, EventArena
from repro.obs.pipeline.ship import (
    OBS_CHUNK,
    OBS_RACK_CHUNK,
    OBS_ROOT,
    ChunkShipper,
    RackCollector,
    SeqTracker,
)

__all__ = [
    "ArenaBus",
    "ChunkShipper",
    "EventArena",
    "LOSS_COUNTERS",
    "OBS_CHUNK",
    "OBS_RACK_CHUNK",
    "OBS_ROOT",
    "RackCollector",
    "RootCollector",
    "SeqTracker",
    "check_loss_invariant",
]
