"""Deterministic queries over a recorded event stream.

``python -m repro obs query DIR`` filters a run's events — from the
directory's ``events.jsonl`` — by any combination of

* **kind** — wire tags from :data:`repro.obs.events.EVENT_TYPES`;
* **task** — by name, resolved through the admission record: an event
  matches when it names the task directly (admission, migration) or
  when its thread id was admitted under that name on its node;
* **node** — the cluster node the event was stamped with;
* **window** — an inclusive ``[lo, hi]`` range of sim ticks.

Filtering preserves stream order and never reformats values, so the
same query over the same artifact prints byte-identical output — the
property that makes query output diffable across runs and usable in
golden tests.  :func:`describe` is the single human-readable rendering
of an event; ``obs explain`` reuses it so a causal chain reads exactly
like the query output it was filtered from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.errors import SimulationError
from repro.obs.events import EVENT_TYPES, ObsEvent


@dataclass(frozen=True)
class Query:
    """One filter: ``None`` fields are wildcards."""

    kinds: frozenset[str] | None = None
    task: str | None = None
    nodes: frozenset[str] | None = None
    window: tuple[int, int] | None = None


def task_threads(
    events: Iterable[ObsEvent], task: str
) -> dict[str, set[int]]:
    """node -> thread ids the admission record ties to ``task``.

    A task migrated between nodes is admitted on each, so it can map to
    several (node, thread) pairs over one run; all of them are ``task``.
    """
    out: dict[str, set[int]] = {}
    for event in events:
        if (
            event.type == "admission"
            and event.task == task
            and event.outcome == "accepted"
            and event.thread_id >= 0
        ):
            out.setdefault(event.node, set()).add(event.thread_id)
    return out


def select(events: Iterable[ObsEvent], query: Query) -> list[ObsEvent]:
    """The events matching ``query``, in stream order."""
    events = list(events)
    if query.kinds is not None:
        unknown = sorted(set(query.kinds) - set(EVENT_TYPES))
        if unknown:
            raise SimulationError(
                f"unknown event kind(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(EVENT_TYPES))})"
            )
    threads = (
        task_threads(events, query.task) if query.task is not None else None
    )
    matched: list[ObsEvent] = []
    for event in events:
        if query.kinds is not None and event.type not in query.kinds:
            continue
        if query.nodes is not None and event.node not in query.nodes:
            continue
        if query.window is not None and not (
            query.window[0] <= event.time <= query.window[1]
        ):
            continue
        if threads is not None and not _matches_task(
            event, query.task, threads
        ):
            continue
        matched.append(event)
    return matched


def _matches_task(
    event: ObsEvent, task: str, threads: dict[str, set[int]]
) -> bool:
    if getattr(event, "task", "") == task:
        return True
    tids = threads.get(event.node)
    if not tids:
        return False
    if event.type == "context-switch":
        return event.from_thread in tids or event.to_thread in tids
    thread_id = getattr(event, "thread_id", None)
    return thread_id is not None and thread_id in tids


def describe(event: ObsEvent) -> str:
    """One event as one deterministic human-readable clause."""
    kind = event.type
    if kind == "admission":
        line = (
            f"admission: {event.outcome} {event.task!r} -> "
            f"thread {event.thread_id} (min_rate={event.min_rate:.3f}, "
            f"committed={event.committed:.3f})"
        )
        if event.error:
            line += f" [{event.error}]"
        return line
    if kind == "policy-resolution":
        return (
            f"policy-resolution: {event.task_count} task(s)"
            + (", invented ranking" if event.invented else "")
        )
    if kind == "grant-recompute":
        line = (
            f"grant-recompute: {event.granted}/{event.requests} granted, "
            f"degraded={event.degraded}, qos={event.qos_fraction:.3f}"
        )
        if event.minimum_fallback:
            line += ", minimum fallback"
        return line
    if kind == "grant-change":
        return (
            f"grant-change: thread {event.thread_id} -> "
            f"{event.cpu_ticks} ticks / {event.period} ({event.reason})"
        )
    if kind == "context-switch":
        return (
            f"context-switch: {event.from_thread} -> {event.to_thread} "
            f"({event.kind}, cost {event.cost_ticks})"
        )
    if kind == "grace-period":
        verb = "honoured" if event.honoured else "burned"
        return (
            f"grace-period: thread {event.thread_id} {verb} "
            f"{event.grace_ticks} ticks"
        )
    if kind == "period-close":
        line = (
            f"period-close: thread {event.thread_id} period "
            f"{event.period_index}, delivered "
            f"{event.delivered}/{event.granted}"
        )
        if event.missed:
            line += " MISSED"
        if event.voided:
            line += " voided"
        return line
    if kind == "activation":
        return f"activation: {event.pending} pending grant(s)"
    if kind == "rpc":
        line = (
            f"rpc: {event.action} {event.src or '?'} -> "
            f"{event.dst or '?'} {event.kind}"
        )
        if event.request_id:
            line += f" [{event.request_id} attempt {event.attempt}]"
        return line
    if kind == "migration":
        line = (
            f"migration: {event.task} {event.source} -> {event.target} "
            f"{event.outcome}"
        )
        if event.reason:
            line += f" ({event.reason})"
        return line
    if kind == "slo-alert":
        return (
            f"slo-alert: {event.slo} {event.metric}[{event.subject}] = "
            f"{event.value:.4f} (want {event.op} {event.threshold:g}, "
            f"burn {event.burn_rate:.2f})"
        )
    if kind == "violation":
        return f"violation: {event.rule}: {event.detail}"
    return kind


def format_line(event: ObsEvent) -> str:
    """The canonical one-line rendering: time, node, description."""
    return f"{event.time:>12} {event.node or '-':<8} {describe(event)}"
