"""Grant-completion latency analysis.

Section 4.2: "One implication of EDF is that the maximum guaranteed
latency for a task is twice its period minus twice its CPU requirement.
This occurs when the grant is delivered to an application at the
beginning of one period and at the end of the subsequent period."

Two distinct quantities follow from that sentence, and they have
different bounds:

* the **service gap** — the longest interval during which the thread
  receives none of its granted CPU.  In the paper's worst case the
  grant occupies ``[start, start + C]`` of one period and
  ``[start + 2P - C, start + 2P]`` of the next, so the starvation in
  between is ``2P - 2C``.  This is the paper's "maximum guaranteed
  latency".
* the **completion gap** — the time between the instants at which
  consecutive periods' grants finish being delivered.  In the same
  worst case the first completes at ``start + C`` and the second at
  ``start + 2P``, so completion gaps may legitimately reach ``2P - C``.

These helpers measure both, per thread, and check them against their
respective bounds.  The bounds assume the thread never blocks and no
period is voided; runs containing voided or missed periods can exceed
them without any scheduler fault.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from repro.sim.trace import SegmentKind, TraceRecorder


@dataclass(frozen=True)
class LatencyStats:
    """Completion-gap and service-gap statistics for one thread."""

    thread_id: int
    completions: int
    min_gap: int
    mean_gap: float
    #: Largest gap between consecutive grant completions.
    max_gap: int
    #: Longest interval with no granted service between first and last
    #: delivery (the latency the paper's bound is about).
    max_service_gap: int
    #: The paper's worst-case latency bound: 2*period - 2*cpu.
    bound: int
    #: The implied completion-gap bound: 2*period - cpu.
    completion_bound: int

    @property
    def within_bound(self) -> bool:
        return (
            self.max_service_gap <= self.bound
            and self.max_gap <= self.completion_bound
        )

    @property
    def bound_utilization(self) -> float:
        """How much of the theoretical worst-case latency was used."""
        return self.max_service_gap / self.bound if self.bound else 0.0


def completion_times(trace: TraceRecorder, thread_id: int) -> list[int]:
    """The instant each period's full grant had been delivered.

    Periods that were voided (blocked) or missed have no completion and
    are skipped.
    """
    deadlines = {
        d.period_index: d
        for d in trace.deadlines_for(thread_id)
        if not d.voided and not d.missed
    }
    progress: dict[int, int] = {}
    completions: dict[int, int] = {}
    for seg in trace.segments:
        if seg.thread_id != thread_id or seg.kind is not SegmentKind.GRANTED:
            continue
        d = deadlines.get(seg.period_index)
        if d is None or seg.period_index in completions:
            continue
        got = progress.get(seg.period_index, 0)
        need = d.granted - got
        if seg.length >= need:
            completions[seg.period_index] = seg.start + need
        progress[seg.period_index] = got + seg.length
    return [completions[k] for k in sorted(completions)]


def service_intervals(trace: TraceRecorder, thread_id: int) -> list[tuple[int, int]]:
    """Maximal intervals during which the thread received granted CPU.

    Back-to-back granted segments (a task consuming its grant in
    chunks) are merged into one interval.
    """
    merged: list[list[int]] = []
    for seg in sorted(
        (
            s
            for s in trace.segments
            if s.thread_id == thread_id and s.kind is SegmentKind.GRANTED
        ),
        key=lambda s: s.start,
    ):
        if merged and seg.start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], seg.end)
        else:
            merged.append([seg.start, seg.end])
    return [(a, b) for a, b in merged]


def max_service_gap(trace: TraceRecorder, thread_id: int) -> int:
    """The longest no-granted-service interval between deliveries."""
    intervals = service_intervals(trace, thread_id)
    return max(
        (b[0] - a[1] for a, b in zip(intervals, intervals[1:])),
        default=0,
    )


def latency_stats(
    trace: TraceRecorder, thread_id: int, period: int, cpu: int
) -> LatencyStats | None:
    """Completion-gap and service-gap stats for a fixed (period, cpu).

    Returns None when fewer than two completions exist.
    """
    times = completion_times(trace, thread_id)
    if len(times) < 2:
        return None
    gaps = [b - a for a, b in zip(times, times[1:])]
    return LatencyStats(
        thread_id=thread_id,
        completions=len(times),
        min_gap=min(gaps),
        mean_gap=statistics.fmean(gaps),
        max_gap=max(gaps),
        max_service_gap=max_service_gap(trace, thread_id),
        bound=2 * period - 2 * cpu,
        completion_bound=2 * period - cpu,
    )
