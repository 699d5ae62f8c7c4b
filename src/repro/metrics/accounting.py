"""Per-thread, per-period accounting from trace records."""

from __future__ import annotations

from repro.sim.trace import SegmentKind, TraceRecorder


def miss_rate(trace: TraceRecorder, thread_id: int | None = None) -> float:
    """Fraction of non-voided periods whose grant was not delivered."""
    deadlines = [
        d
        for d in trace.deadlines
        if not d.voided and (thread_id is None or d.thread_id == thread_id)
    ]
    if not deadlines:
        return 0.0
    return sum(1 for d in deadlines if d.missed) / len(deadlines)


def utilization(
    trace: TraceRecorder, start: int = 0, end: int | None = None
) -> dict[int, float]:
    """CPU fraction per thread id over ``[start, end)``.

    System overhead is reported under key ``-1``; idle time under the
    idle thread's id (0).
    """
    if end is None:
        end = max((s.end for s in trace.segments), default=start)
    elapsed = end - start
    if elapsed <= 0:
        return {}
    shares: dict[int, int] = {}
    for seg in trace.segments:
        lo = max(seg.start, start)
        hi = min(seg.end, end)
        if hi > lo:
            shares[seg.thread_id] = shares.get(seg.thread_id, 0) + (hi - lo)
    return {tid: ticks / elapsed for tid, ticks in sorted(shares.items())}


def qos_timeline(trace: TraceRecorder, thread_id: int) -> list[tuple[int, int, float]]:
    """(time, entry_index, rate) for every grant change of one thread."""
    return [
        (g.time, g.entry_index, g.rate)
        for g in trace.grant_changes
        if g.thread_id == thread_id
    ]


def allocation_series(
    trace: TraceRecorder, thread_id: int, kinds: frozenset[SegmentKind] | None = None
) -> list[tuple[int, int]]:
    """(period_start, ticks received) per period, from run segments.

    This is the Figure 5 series: the CPU a thread actually received in
    each of its periods.  ``kinds`` restricts which segment kinds count
    (default: granted + assigned, i.e. guaranteed time only).
    """
    if kinds is None:
        kinds = frozenset({SegmentKind.GRANTED, SegmentKind.ASSIGNED})
    deadlines = sorted(trace.deadlines_for(thread_id), key=lambda d: d.period_index)
    series = []
    for d in deadlines:
        ticks = sum(
            seg.length
            for seg in trace.segments
            if seg.thread_id == thread_id
            and seg.kind in kinds
            and d.period_start <= seg.start < d.deadline
        )
        series.append((d.period_start, ticks))
    return series
