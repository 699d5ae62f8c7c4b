"""Causal explanation of one deadline miss, end to end.

``python -m repro obs explain DIR --task T --miss N`` answers the
question a miss-rate number never does: *what actually happened to this
period?*  It prints, in time order, the evidence the analysis layer
kept while attributing the miss (:mod:`repro.obs.analysis.attribution`
owns the rules; nothing is selected a second time here) — the concrete
chain of events that led from the task's admission to the missed
deadline:

* the admission that created the thread on its node;
* every grant change the thread saw inside the missed window;
* overloaded grant recomputes (degraded QOS / minimum fallback);
* burned grace periods and involuntary preemptions (long storms are
  elided deterministically, never dropped from the cause list);
* migrations of the task, wherever they were recorded;
* invariant violations on the node;
* the period-close record of the miss itself.

When the run shipped its arenas through the telemetry pipeline, the
report ends with the loss accounting for the miss's node: either "no
loss" or exactly which kinds dropped how many rows on the way to the
root.  That section describes the *shipped* view (``pipeline.json``);
the chain is printed from the ``events.*`` artifacts, which are written
from the session's own arenas, so it is the node's full local record
whatever the root received.  It is labelled *partial* only when a ring
arena overwrote rows of its own that the missed window reaches.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import SimulationError
from repro.obs.analysis.attribution import AttributedMiss, attribute_misses
from repro.obs.analysis.timeline import build_timelines
from repro.obs.events import ObsEvent
from repro.obs.pipeline.query import format_line

#: Involuntary-preemption chain entries beyond which the middle of the
#: storm is elided (first/last _SHOWN_SWITCHES // 2 are kept).
_SHOWN_SWITCHES = 6


def find_misses(
    events: Iterable[ObsEvent], task: str
) -> list[AttributedMiss]:
    """Every attributed miss of ``task``, in deterministic order.

    ``task`` matches the admission-record name, or a ``node/name``
    label to pin one node of a migrated task.
    """
    events = list(events)
    misses = [
        miss
        for miss in attribute_misses(events, build_timelines(events))
        if miss.task == task or miss.label == task
    ]
    misses.sort(
        key=lambda m: (m.deadline, m.node, m.thread_id, m.period_index)
    )
    return misses


def causal_chain(miss: AttributedMiss) -> list[ObsEvent]:
    """The concrete events behind ``miss``, sorted by time.

    Exactly the evidence attribution kept — the task's admission on the
    miss's node, every event a rule matched, the period-close record —
    so the printed chain and the cause list can never disagree about
    what counts.
    """
    # Stable sort: same-tick events keep their stream order.
    return sorted(miss.evidence, key=lambda event: event.time)


def _chain_lines(chain: list[ObsEvent]) -> list[str]:
    """Rendered chain, the middle of a preemption storm elided."""
    switches = [e for e in chain if e.type == "context-switch"]
    elided_ids: set[int] = set()
    if len(switches) > _SHOWN_SWITCHES:
        half = _SHOWN_SWITCHES // 2
        elided_ids = {id(e) for e in switches[half:-half]}
    lines: list[str] = []
    pending = 0
    for event in chain:
        if id(event) in elided_ids:
            pending += 1
            continue
        if pending:
            lines.append(f"    ... {pending} more involuntary preemptions ...")
            pending = 0
        lines.append("  " + format_line(event))
    if pending:
        lines.append(f"    ... {pending} more involuntary preemptions ...")
    return lines


def _loss_lines(
    miss: AttributedMiss, accounting: dict, events: list[ObsEvent]
) -> list[str]:
    """What the root saw of the miss's node, and whether the chain —
    read from the node's own arena — can be missing anything."""
    totals = accounting.get("totals", {})
    where = miss.node or "this machine"
    lines = [
        "telemetry loss accounting:",
        (
            f"  fleet: {totals.get('delivered', 0)}/"
            f"{totals.get('emitted', 0)} events delivered, "
            f"{totals.get('dropped', 0)} dropped, "
            f"{totals.get('sampled_out', 0)} sampled out"
        ),
    ]
    node_kinds = (
        accounting.get("nodes", {}).get(miss.node, {}).get("kinds", {})
    )
    lossy = {
        tag: row
        for tag, row in sorted(node_kinds.items())
        if row.get("dropped", 0) or row.get("sampled_out", 0)
    }
    if not lossy:
        lines.append(f"  {where}: no loss — the chain is complete")
        return lines
    lines.append(f"  the root received fewer rows than {where} emitted:")
    for tag, row in lossy.items():
        lines.append(
            f"    {tag}: {row['dropped']} dropped, "
            f"{row['sampled_out']} sampled out of "
            f"{row['emitted']} emitted"
        )
    # A ring arena evicts a kind's oldest rows first, so the window
    # reaches evicted rows exactly when the oldest surviving row of an
    # overwritten kind is younger than the window's start.
    evicted = []
    for tag, row in lossy.items():
        if row.get("overwritten", 0):
            oldest = min(
                (e.time for e in events if e.type == tag and e.node == miss.node),
                default=None,
            )
            if oldest is None or oldest > miss.start:
                evicted.append(f"{row['overwritten']} {tag}")
    if evicted:
        lines.append(
            f"  partial: {where}'s ring arena overwrote {', '.join(evicted)} "
            f"row(s) the window reaches — the chain above lacks them"
        )
    else:
        lines.append(
            f"  the chain above is read from {where}'s own arena: "
            f"it is the full local record"
        )
    return lines


def explain_miss(
    events: Iterable[ObsEvent],
    task: str,
    miss_index: int = 0,
    loss: dict | None = None,
) -> str:
    """The full report for miss ``miss_index`` (0-based) of ``task``.

    ``loss`` is a pipeline accounting dict (``pipeline.json``) when the
    stream came through the telemetry tree; it turns silent loss into a
    printed caveat.  Raises :class:`~repro.errors.SimulationError` with
    an actionable message when the task or miss does not exist.
    """
    events = list(events)
    misses = find_misses(events, task)
    if not misses:
        timelines = build_timelines(events)
        known = sorted({t.label for t in timelines})
        if any(t.task == task or t.label == task for t in timelines):
            missed_labels = sorted(
                {t.label for t in timelines if t.misses}
            )
            raise SimulationError(
                f"task {task!r} missed no periods in this stream"
                + (
                    f"; tasks with misses: {', '.join(missed_labels)}"
                    if missed_labels
                    else "; no task missed at all"
                )
            )
        raise SimulationError(
            f"no task {task!r} in this event stream"
            + (f" (known: {', '.join(known)})" if known else "")
        )
    if not 0 <= miss_index < len(misses):
        raise SimulationError(
            f"task {task!r} has {len(misses)} missed period(s); "
            f"--miss must be in [0, {len(misses) - 1}]"
        )
    miss = misses[miss_index]
    chain = causal_chain(miss)
    lines = [
        (
            f"miss {miss_index} of {len(misses)} for {miss.label} "
            f"(thread {miss.thread_id}), period {miss.period_index}"
        ),
        (
            f"  window [{miss.start}, {miss.deadline}] "
            f"({miss.deadline - miss.start} ticks), delivered "
            f"{miss.delivered}/{miss.granted} granted ticks"
        ),
        "",
        "causal chain:",
        *_chain_lines(chain),
        "",
        "causes (evidence, not a verdict):",
        *(
            f"  - {cause.kind} @ t={cause.time}: {cause.detail}"
            for cause in miss.causes
        ),
    ]
    if loss is not None:
        lines.append("")
        lines.extend(_loss_lines(miss, loss, events))
    return "\n".join(lines) + "\n"
