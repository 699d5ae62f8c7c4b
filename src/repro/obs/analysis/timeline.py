"""Per-task period timelines and grant-delivery statistics.

Replays a stream of events into one :class:`TaskTimeline` per thread:
every closed period becomes a :class:`PeriodRecord` carrying the ticks
that matter — period start, the tick the grant was fully delivered,
and the deadline.  From those the timeline derives the two numbers the
paper's evaluation leans on: the *grant-delivery ratio* (fraction of
accountable periods whose grant was delivered in full — section 6.1
claims 1.0 under admission control) and the delivery-latency
percentiles (how early within its period each task finishes).

Percentiles use the nearest-rank method: integer arithmetic over
sorted sim ticks, no interpolation, so the same event log always
yields the same p99.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.obs.events import ObsEvent


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (q in [0, 100]): the
    smallest value with at least q % of the values at or below it.

    Returns -1 for an empty sequence; callers render that as "n/a".
    """
    if not values:
        return -1
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) / 100))
    return ordered[min(rank, len(ordered)) - 1]


@dataclass
class PeriodRecord:
    """One closed period of one thread."""

    period_index: int
    start: int
    #: Tick the period's work finished; -1 when it closed outstanding.
    completion: int
    #: The period's deadline == the close tick.
    deadline: int
    granted: int
    delivered: int
    missed: bool
    voided: bool

    @property
    def latency(self) -> int:
        """Ticks from period start to full delivery; -1 if never delivered."""
        if self.completion < 0 or self.start < 0:
            return -1
        return self.completion - self.start

    @property
    def length(self) -> int:
        """The period's span in ticks (deadline - start)."""
        return max(self.deadline - self.start, 0)


@dataclass
class TaskTimeline:
    """Everything one thread's periods did on one node."""

    node: str
    thread_id: int
    #: Task name from the admission record; "" if none was seen.
    task: str = ""
    periods: list[PeriodRecord] = field(default_factory=list)

    @property
    def closed(self) -> int:
        return len(self.periods)

    @property
    def misses(self) -> int:
        return sum(1 for p in self.periods if p.missed)

    @property
    def voided(self) -> int:
        return sum(1 for p in self.periods if p.voided)

    @property
    def accountable(self) -> int:
        """Periods the guarantee covers: closed minus voided-by-blocking."""
        return self.closed - self.voided

    @property
    def delivery_ratio(self) -> float:
        """Fraction of accountable periods whose grant was fully delivered.

        1.0 is the paper's headline guarantee.  A timeline with no
        accountable periods reports 1.0 — nothing was promised, nothing
        was broken.
        """
        if self.accountable <= 0:
            return 1.0
        return (self.accountable - self.misses) / self.accountable

    def latencies(self) -> list[int]:
        """Delivery latencies (ticks) of the periods that completed."""
        return [p.latency for p in self.periods if p.latency >= 0]

    def latency_percentile(self, q: float) -> int:
        return percentile(self.latencies(), q)

    @property
    def label(self) -> str:
        name = self.task or f"thread-{self.thread_id}"
        return f"{self.node}/{name}" if self.node else name


def build_timelines(events: Iterable[ObsEvent]) -> list[TaskTimeline]:
    """Replay events into per-(node, thread) timelines, sorted by label.

    Admission events name threads; period-close events populate the
    periods.  Threads that were admitted but never closed a period
    still appear (with zero periods) so a report shows them as present.
    """
    timelines: dict[tuple[str, int], TaskTimeline] = {}

    def timeline(node: str, thread_id: int) -> TaskTimeline:
        key = (node, thread_id)
        if key not in timelines:
            timelines[key] = TaskTimeline(node=node, thread_id=thread_id)
        return timelines[key]

    for event in events:
        kind = event.type
        if kind == "admission":
            if event.outcome == "accepted" and event.thread_id >= 0:
                line = timeline(event.node, event.thread_id)
                if not line.task:
                    line.task = event.task
        elif kind == "period-close":
            timeline(event.node, event.thread_id).periods.append(
                PeriodRecord(
                    period_index=event.period_index,
                    start=event.start,
                    completion=event.completion,
                    deadline=event.time,
                    granted=event.granted,
                    delivered=event.delivered,
                    missed=event.missed,
                    voided=event.voided,
                )
            )
    return sorted(
        timelines.values(), key=lambda t: (t.node, t.task, t.thread_id)
    )
