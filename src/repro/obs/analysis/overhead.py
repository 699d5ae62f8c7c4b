"""Context-switch and grace-period overhead accounting per node.

The paper's section 6.1 argues the Distributor's overhead is dominated
by context switches whose cost is *charged to the switching thread's
grant*, and section 5.6's controlled preemption trades a bounded grace
window against an involuntary switch.  This module turns the
``context-switch`` and ``grace-period`` event streams into the
breakdown those sections tabulate: switch counts and burned ticks by
kind, and how often grace periods were honoured versus burned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.obs.events import ObsEvent


@dataclass
class OverheadBreakdown:
    """Per-node switch/grace overhead totals."""

    node: str
    switches: dict[str, int] = field(default_factory=dict)
    switch_cost_ticks: dict[str, int] = field(default_factory=dict)
    grace_honoured: int = 0
    grace_burned: int = 0
    grace_burned_ticks: int = 0

    @property
    def total_switches(self) -> int:
        return sum(self.switches.values())

    @property
    def total_switch_cost(self) -> int:
        return sum(self.switch_cost_ticks.values())

    @property
    def grace_total(self) -> int:
        return self.grace_honoured + self.grace_burned


def overhead_breakdown(events: Iterable[ObsEvent]) -> list[OverheadBreakdown]:
    """One breakdown per node that produced switch or grace events."""
    by_node: dict[str, OverheadBreakdown] = {}

    def breakdown(node: str) -> OverheadBreakdown:
        if node not in by_node:
            by_node[node] = OverheadBreakdown(node=node)
        return by_node[node]

    for event in events:
        kind = event.type
        if kind == "context-switch":
            b = breakdown(event.node)
            b.switches[event.kind] = b.switches.get(event.kind, 0) + 1
            b.switch_cost_ticks[event.kind] = (
                b.switch_cost_ticks.get(event.kind, 0) + event.cost_ticks
            )
        elif kind == "grace-period":
            b = breakdown(event.node)
            if event.honoured:
                b.grace_honoured += 1
            else:
                b.grace_burned += 1
                b.grace_burned_ticks += event.grace_ticks
    return [by_node[node] for node in sorted(by_node)]
