"""Placement policies: ordering candidate nodes for an admission.

A policy never admits anything itself — it only ranks the broker's view
of the nodes.  The broker hands it only the nodes whose own admission
rule, asked on empty books, could hold the task's minimum, then walks
the ranking, sending an admission RPC to each node in turn until one
accepts (on anything that could fit, a node's own AdmissionController
stays the sole authority).  Each policy keys every view on its own, so
dropping the nodes that could never hold the task leaves the order of
the rest unchanged.
That split mirrors the paper's mechanism/policy separation one level
up: per-node admission is mechanism, cross-node placement is policy.

Three policies ship:

* ``first-fit`` — nodes in fixed index order; fills node 0 first.
* ``best-fit`` — tightest fit by residual schedulable headroom after
  the candidate's minimum entry, packing nodes densely.
* ``aimd`` — descending AIMD weight (see
  :class:`repro.cluster.broker.ClusterBroker`): nodes that keep
  reporting headroom are additively favoured, nodes that report
  overload are multiplicatively shunned — least-loaded placement
  driven by feedback rather than by a point-in-time snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.node import NodeLoadReport
from repro.errors import ReproError


@dataclass
class NodeView:
    """What the broker currently believes about one node.

    ``headroom`` starts at the configured capacity (an empty node) and
    is refreshed from load reports; between reports it is adjusted
    optimistically as the broker places or withdraws tasks, so the view
    tracks reality even when report messages are dropped.
    """

    name: str
    index: int
    capacity: float
    headroom: float
    weight: float = 1.0
    report: NodeLoadReport | None = field(default=None, repr=False)

    @property
    def overloaded(self) -> bool:
        return self.report is not None and self.report.overloaded


class PlacementPolicy:
    """Orders candidate nodes for one admission attempt."""

    name = "abstract"

    def order(self, views: list[NodeView], min_rate: float) -> list[str]:
        raise NotImplementedError


class FirstFitPolicy(PlacementPolicy):
    """Fixed node order: try node 0, then node 1, ..."""

    name = "first-fit"

    def order(self, views: list[NodeView], min_rate: float) -> list[str]:
        return [v.name for v in sorted(views, key=lambda v: v.index)]


class BestFitPolicy(PlacementPolicy):
    """Tightest fit: the node whose headroom exceeds the minimum by the
    least comes first, packing existing nodes before opening fresh ones."""

    name = "best-fit"

    def order(self, views: list[NodeView], min_rate: float) -> list[str]:
        def key(view: NodeView):
            fits = view.headroom >= min_rate
            residual = view.headroom - min_rate
            # Fitting nodes first, tightest residual first; non-fitting
            # nodes after (the view may be stale), roomiest first.
            return (not fits, residual if fits else -view.headroom, view.index)

        return [v.name for v in sorted(views, key=key)]


class AimdWeightedPolicy(PlacementPolicy):
    """Feedback-weighted least-loaded: descending AIMD weight."""

    name = "aimd"

    def order(self, views: list[NodeView], min_rate: float) -> list[str]:
        return [
            v.name
            for v in sorted(views, key=lambda v: (-v.weight, -v.headroom, v.index))
        ]


_POLICIES: dict[str, type[PlacementPolicy]] = {
    cls.name: cls for cls in (FirstFitPolicy, BestFitPolicy, AimdWeightedPolicy)
}

#: The placement policy names accepted by ``make_policy`` and the CLI.
POLICY_NAMES: tuple[str, ...] = tuple(sorted(_POLICIES))


def make_policy(name: str) -> PlacementPolicy:
    """Instantiate a placement policy by name."""
    try:
        return _POLICIES[name]()
    except KeyError:
        raise ReproError(
            f"unknown placement policy {name!r}; known: {', '.join(POLICY_NAMES)}"
        ) from None
