"""Execution trace recording.

The trace is the single source of truth for every experiment: metrics
(delivered CPU per period, deadline misses, switch overhead) and the
ASCII Gantt charts that regenerate the paper's Figures 3-5 are both
computed from it, never from scheduler internals.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class SwitchKind(enum.Enum):
    """How a context switch happened (paper section 5.6)."""

    #: The outgoing thread yielded: finished its work, blocked, or noticed
    #: a grace-period notification and yielded in time.
    VOLUNTARY = "voluntary"
    #: The outgoing thread was preempted by the timer interrupt.
    INVOLUNTARY = "involuntary"


class SegmentKind(enum.Enum):
    """What kind of time a run segment represents."""

    #: Execution charged against the thread's grant for the period.
    GRANTED = "granted"
    #: Execution past the grant, on unallocated time (OvertimeRequested).
    OVERTIME = "overtime"
    #: Execution by a sporadic task on an assigned grant; charged to the
    #: assigning periodic thread.
    ASSIGNED = "assigned"
    #: Context-switch / kernel overhead (covered by the interrupt reserve).
    SYSTEM = "system"
    #: The idle thread.
    IDLE = "idle"


# The members, bound once at import for the hot paths that record runs
# and switches (see ``repro.core.threads``; DESIGN.md §4).
SWITCH_VOLUNTARY = SwitchKind.VOLUNTARY
SWITCH_INVOLUNTARY = SwitchKind.INVOLUNTARY
SEGMENT_GRANTED = SegmentKind.GRANTED
SEGMENT_OVERTIME = SegmentKind.OVERTIME
SEGMENT_ASSIGNED = SegmentKind.ASSIGNED
SEGMENT_SYSTEM = SegmentKind.SYSTEM
SEGMENT_IDLE = SegmentKind.IDLE


@dataclass(frozen=True)
class RunSegment:
    """A contiguous interval during which one thread held the CPU."""

    thread_id: int
    start: int
    end: int
    kind: SegmentKind
    #: Index of the period the time was charged to (grant accounting), or
    #: -1 for system/idle segments.
    period_index: int = -1
    #: For ASSIGNED segments: the periodic thread whose grant paid for it.
    charged_to: int | None = None

    @property
    def length(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class ContextSwitchRecord:
    """One context switch, with its sampled cost."""

    time: int
    from_thread: int | None
    to_thread: int | None
    kind: SwitchKind
    cost_ticks: int


@dataclass(frozen=True)
class DeadlineRecord:
    """Outcome of one period of one thread.

    ``missed`` is True when the scheduler failed to deliver the full
    grant by the period end even though the thread was eligible for it
    the whole period.  Periods in which the thread was blocked void the
    guarantee (paper section 4.2) and are flagged ``voided`` instead.
    """

    thread_id: int
    period_index: int
    period_start: int
    deadline: int
    granted: int
    delivered: int
    missed: bool
    voided: bool = False

    @property
    def met(self) -> bool:
        return not self.missed


@dataclass(frozen=True)
class GrantChangeRecord:
    """A thread's grant changed (new grant set activated)."""

    time: int
    thread_id: int
    period: int
    cpu_ticks: int
    entry_index: int
    reason: str = ""

    @property
    def rate(self) -> float:
        return self.cpu_ticks / self.period if self.period else 0.0


@dataclass(frozen=True)
class BlockRecord:
    """A thread blocked on, or was woken from, a channel."""

    time: int
    thread_id: int
    blocked: bool
    channel: str = ""


class TraceRecorder:
    """Accumulates trace records during a simulation run.

    Run segments are recorded through a **batched open-segment buffer**:
    the kernel calls :meth:`record_run` with raw fields (no
    :class:`RunSegment` allocation) and contiguous chunks of the same
    thread/kind/period extend the open segment in place.  A frozen
    ``RunSegment`` is materialized only when the open segment closes —
    one allocation per *run on the CPU*, not per compute chunk.

    **Reader contract:** read :attr:`segments`.  The property flushes
    the open segment first, so every consumer sees the same coalesced
    list the eager recorder produced, and it is the only thing that
    flushes: the kernel leaves the open segment open when ``run_until``
    returns, so the next slice of the same run extends it in place.  A
    captured reference to the list object is therefore only as fresh as
    the last read — register ``lambda: trace.segments`` with a lazy
    consumer (the obs session's Perfetto export), never the list.
    """

    def __init__(self) -> None:
        self._segments: list[RunSegment] = []
        self.switches: list[ContextSwitchRecord] = []
        self.deadlines: list[DeadlineRecord] = []
        self.grant_changes: list[GrantChangeRecord] = []
        self.blocks: list[BlockRecord] = []
        #: Free-form annotations (time, text) for experiment narration.
        self.notes: list[tuple[int, str]] = []
        #: Open-segment buffer; ``_open_thread`` is None when empty.
        self._open_thread: int | None = None
        self._open_start = 0
        self._open_end = 0
        self._open_kind = SEGMENT_IDLE
        self._open_period = -1
        self._open_charged: int | None = None

    @property
    def segments(self) -> list[RunSegment]:
        """All run segments recorded so far (flushes the open buffer).

        Returns the live internal list, the same object across calls;
        a reference kept from an earlier read lacks what was recorded
        since.
        """
        self.flush()
        return self._segments

    def flush(self) -> None:
        """Materialize the open segment into the segment list."""
        if self._open_thread is None:
            return
        self._segments.append(
            RunSegment(
                thread_id=self._open_thread,
                start=self._open_start,
                end=self._open_end,
                kind=self._open_kind,
                period_index=self._open_period,
                charged_to=self._open_charged,
            )
        )
        self._open_thread = None

    def record_run(
        self,
        thread_id: int,
        start: int,
        end: int,
        kind: SegmentKind,
        period_index: int = -1,
        charged_to: int | None = None,
    ) -> None:
        """Record a contiguous run interval from raw fields (hot path).

        Coalesces with the previous record when execution is contiguous
        — a thread computing in many small chunks is one run on the
        CPU, not many.
        """
        if end < start:
            raise ValueError(
                f"segment ends before it starts: thread {thread_id} "
                f"{start}..{end}"
            )
        if end == start:
            return
        if self._open_thread is not None:
            if (
                self._open_thread == thread_id
                and self._open_kind is kind
                and self._open_period == period_index
                and self._open_charged == charged_to
                and self._open_end == start
            ):
                self._open_end = end
                return
            self.flush()
        elif self._segments:
            # A flush may have materialized the previous run early (an
            # epoch boundary mid-run); reopen it so coalescing behaves
            # exactly as if no flush had happened.
            last = self._segments[-1]
            if (
                last.thread_id == thread_id
                and last.kind is kind
                and last.period_index == period_index
                and last.charged_to == charged_to
                and last.end == start
            ):
                self._segments.pop()
                self._open_thread = thread_id
                self._open_start = last.start
                self._open_end = end
                self._open_kind = kind
                self._open_period = period_index
                self._open_charged = charged_to
                return
        self._open_thread = thread_id
        self._open_start = start
        self._open_end = end
        self._open_kind = kind
        self._open_period = period_index
        self._open_charged = charged_to

    def record_segment(self, segment: RunSegment) -> None:
        self.record_run(
            segment.thread_id,
            segment.start,
            segment.end,
            segment.kind,
            segment.period_index,
            segment.charged_to,
        )

    def record_switch(self, record: ContextSwitchRecord) -> None:
        self.switches.append(record)

    def record_deadline(self, record: DeadlineRecord) -> None:
        self.deadlines.append(record)

    def record_grant_change(self, record: GrantChangeRecord) -> None:
        self.grant_changes.append(record)

    def record_block(self, record: BlockRecord) -> None:
        self.blocks.append(record)

    def note(self, time: int, text: str) -> None:
        self.notes.append((time, text))

    # -- convenience queries used by metrics and tests ------------------

    def segments_for(self, thread_id: int) -> list[RunSegment]:
        """All run segments of one thread, in time order."""
        return [s for s in self.segments if s.thread_id == thread_id]

    def busy_ticks(self, thread_id: int, start: int = 0, end: int | None = None) -> int:
        """Total CPU ticks ``thread_id`` held within ``[start, end)``."""
        total = 0
        for seg in self.segments:
            if seg.thread_id != thread_id:
                continue
            lo = max(seg.start, start)
            hi = seg.end if end is None else min(seg.end, end)
            if hi > lo:
                total += hi - lo
        return total

    def switch_count(self, kind: SwitchKind | None = None) -> int:
        if kind is None:
            return len(self.switches)
        return sum(1 for s in self.switches if s.kind == kind)

    def switch_cost_ticks(self, kind: SwitchKind | None = None) -> int:
        return sum(s.cost_ticks for s in self.switches if kind is None or s.kind == kind)

    def misses(self, thread_id: int | None = None) -> list[DeadlineRecord]:
        return [
            d
            for d in self.deadlines
            if d.missed and (thread_id is None or d.thread_id == thread_id)
        ]

    def deadlines_for(self, thread_id: int) -> list[DeadlineRecord]:
        return [d for d in self.deadlines if d.thread_id == thread_id]
