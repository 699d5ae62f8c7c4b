"""Deadline-miss attribution: tie each missed period to its causes.

A deadline miss in this system is never mysterious — every mechanism
that can eat a thread's time announces itself on the bus.  For each
missed period we scan the events of the same node inside the period's
window ``[start, deadline]`` and classify what we find:

* ``grant-shrunk`` — the thread's own grant changed mid-stream (a
  recompute handed it a smaller or removed entry);
* ``qos-degraded`` — grant control was running below full QOS
  (degraded entries, minimum fallback, or a qos fraction under 1.0),
  so the whole node was in overload;
* ``burned-grace`` — a controlled-preemption grace period was not
  honoured, and the burned ticks came out of somebody's budget;
* ``preemption-storm`` — the thread was involuntarily preempted
  repeatedly within one period (timer-driven context switches whose
  cost accumulates against the grant);
* ``migration`` — the task was being moved between nodes while the
  period ran;
* ``invariant-violation`` — the sanitizer flagged the node during the
  window, meaning the run itself was unhealthy;
* ``unattributed`` — none of the above: the record shows the grant
  simply was not delivered, which in a correct run should not happen
  (and is exactly what you want a report to say out loud).

The same event can explain several misses and one miss can have
several causes; attribution is evidence, not a verdict.  The events
that matched a rule stay on the :class:`AttributedMiss` (every
overloaded recompute and every involuntary switch counted, not only the
ones that became a cause line), bracketed by the thread's admission and
the period-close record, so ``repro obs explain`` prints exactly the
record these rules read instead of selecting it a second time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.obs.analysis.episodes import is_overloaded
from repro.obs.analysis.timeline import TaskTimeline
from repro.obs.events import ObsEvent

#: Involuntary switches away from the thread within one period that
#: count as a storm (one preemption per period is business as usual).
PREEMPTION_STORM_THRESHOLD = 3


@dataclass(frozen=True)
class MissCause:
    """One piece of evidence for why a period missed."""

    kind: str
    time: int
    detail: str


@dataclass
class AttributedMiss:
    """A missed period and the causal events found in its window."""

    node: str
    thread_id: int
    task: str
    period_index: int
    start: int
    deadline: int
    granted: int
    delivered: int
    causes: list[MissCause] = field(default_factory=list)
    #: The thread's admission, every event a rule matched, and the
    #: period-close record itself, in stream order.
    evidence: list[ObsEvent] = field(default_factory=list)

    @property
    def label(self) -> str:
        name = self.task or f"thread-{self.thread_id}"
        return f"{self.node}/{name}" if self.node else name


def attribute_misses(
    events: Iterable[ObsEvent], timelines: Iterable[TaskTimeline]
) -> list[AttributedMiss]:
    """Attribute every missed period across ``timelines``.

    ``events`` is the full stream the timelines were built from; it is
    indexed per node once, then each miss scans only its own node.
    Migrations are recorded where the broker ran, not where the task
    did, so they are indexed under every node and matched by task.
    """
    timelines = list(timelines)
    by_node: dict[str, list[ObsEvent]] = {line.node: [] for line in timelines}
    for event in events:
        if event.type == "migration":
            for node_events in by_node.values():
                node_events.append(event)
        elif event.node in by_node:
            by_node[event.node].append(event)

    misses: list[AttributedMiss] = []
    for line in timelines:
        node_events = by_node[line.node]
        for record in line.periods:
            if not record.missed:
                continue
            miss = AttributedMiss(
                node=line.node,
                thread_id=line.thread_id,
                task=line.task,
                period_index=record.period_index,
                start=record.start,
                deadline=record.deadline,
                granted=record.granted,
                delivered=record.delivered,
            )
            _attribute_one(miss, node_events)
            misses.append(miss)
    return misses


def _attribute_one(miss: AttributedMiss, node_events: Iterable[ObsEvent]) -> None:
    lo, hi = miss.start, miss.deadline
    preemptions = 0
    degraded_seen = False
    evidence = miss.evidence
    for event in node_events:
        if event.time > hi:
            continue
        kind = event.type
        if kind == "admission":
            if event.task == miss.task and event.thread_id == miss.thread_id:
                evidence.append(event)
            continue
        if event.time < lo:
            continue
        if kind == "grant-change" and event.thread_id == miss.thread_id:
            evidence.append(event)
            miss.causes.append(
                MissCause(
                    kind="grant-shrunk",
                    time=event.time,
                    detail=(
                        f"grant became {event.cpu_ticks} ticks / period "
                        f"{event.period} ({event.reason})"
                    ),
                )
            )
        elif kind == "grant-recompute" and is_overloaded(event):
            evidence.append(event)
            if not degraded_seen:
                degraded_seen = True
                miss.causes.append(
                    MissCause(
                        kind="qos-degraded",
                        time=event.time,
                        detail=(
                            f"node in overload: qos_fraction="
                            f"{event.qos_fraction:.3f}, degraded="
                            f"{event.degraded}"
                            + (", minimum fallback" if event.minimum_fallback else "")
                        ),
                    )
                )
        elif kind == "grace-period" and not event.honoured:
            evidence.append(event)
            miss.causes.append(
                MissCause(
                    kind="burned-grace",
                    time=event.time,
                    detail=(
                        f"thread {event.thread_id} burned a "
                        f"{event.grace_ticks}-tick grace period"
                    ),
                )
            )
        elif kind == "context-switch":
            if event.kind == "involuntary" and event.from_thread == miss.thread_id:
                evidence.append(event)
                preemptions += 1
        elif kind == "migration" and event.task and event.task == miss.task:
            evidence.append(event)
            miss.causes.append(
                MissCause(
                    kind="migration",
                    time=event.time,
                    detail=(
                        f"{event.outcome} {event.source} -> {event.target}"
                        + (f" ({event.reason})" if event.reason else "")
                    ),
                )
            )
        elif kind == "violation":
            evidence.append(event)
            miss.causes.append(
                MissCause(
                    kind="invariant-violation",
                    time=event.time,
                    detail=f"{event.rule}: {event.detail}",
                )
            )
        elif (
            kind == "period-close"
            and event.thread_id == miss.thread_id
            and event.period_index == miss.period_index
        ):
            evidence.append(event)
    if preemptions >= PREEMPTION_STORM_THRESHOLD:
        miss.causes.append(
            MissCause(
                kind="preemption-storm",
                time=hi,
                detail=f"{preemptions} involuntary preemptions in one period",
            )
        )
    if not miss.causes:
        miss.causes.append(
            MissCause(
                kind="unattributed",
                time=hi,
                detail=(
                    f"delivered {miss.delivered}/{miss.granted} ticks with no "
                    f"causal event in [{lo}, {hi}] — investigate"
                ),
            )
        )


def top_causes(misses: Iterable[AttributedMiss]) -> list[tuple[str, int]]:
    """Cause kinds ranked by how many misses they helped explain."""
    counts: dict[str, int] = {}
    for miss in misses:
        for kind in {cause.kind for cause in miss.causes}:
            counts[kind] = counts.get(kind, 0) + 1
    return sorted(counts.items(), key=lambda item: (-item[1], item[0]))
