"""Overload-episode detection from the grant-recompute stream.

Grant control emits one ``grant-recompute`` event per recomputation,
carrying the health of the grant set it produced: how many entries
were degraded below their top QOS, whether the all-minimums fallback
fired, and the delivered QOS fraction.  A node *enters* an overload
episode at the first unhealthy recompute and *exits* at the first
fully healthy one; admissions denied inside the window are counted
against the episode (the paper's section 6.3 runs show exactly this
shape: load arrives, QOS steps down, admissions start bouncing, load
departs, QOS steps back up).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.obs.events import ObsEvent


@dataclass
class OverloadEpisode:
    """One contiguous stretch of degraded QOS on one node."""

    node: str
    entry: int
    #: Exit tick; -1 when the run ended still overloaded.
    exit: int = -1
    recomputes: int = 0
    min_qos_fraction: float = 1.0
    max_degraded: int = 0
    minimum_fallback: bool = False
    denied_admissions: int = 0

    @property
    def resolved(self) -> bool:
        return self.exit >= 0

    @property
    def duration(self) -> int:
        """Episode length in ticks; -1 while unresolved."""
        return self.exit - self.entry if self.resolved else -1


def is_overloaded(event: ObsEvent) -> bool:
    """Did this ``grant-recompute`` leave its node below full QOS?"""
    return (
        event.degraded > 0
        or event.minimum_fallback
        or event.qos_fraction < 1.0
    )


def detect_episodes(events: Iterable[ObsEvent]) -> list[OverloadEpisode]:
    """Scan the stream once, yielding episodes sorted by (node, entry)."""
    open_by_node: dict[str, OverloadEpisode] = {}
    episodes: list[OverloadEpisode] = []
    for event in events:
        kind = event.type
        if kind == "grant-recompute":
            node = event.node
            current = open_by_node.get(node)
            if is_overloaded(event):
                if current is None:
                    current = OverloadEpisode(node=node, entry=event.time)
                    open_by_node[node] = current
                    episodes.append(current)
                current.recomputes += 1
                current.min_qos_fraction = min(
                    current.min_qos_fraction, event.qos_fraction
                )
                current.max_degraded = max(current.max_degraded, event.degraded)
                current.minimum_fallback = (
                    current.minimum_fallback or event.minimum_fallback
                )
            elif current is not None:
                current.exit = event.time
                del open_by_node[node]
        elif kind == "admission" and event.outcome == "denied":
            current = open_by_node.get(event.node)
            if current is not None:
                current.denied_admissions += 1
    return sorted(episodes, key=lambda e: (e.node, e.entry))
