"""Execution trace recording.

The trace is the single source of truth for every experiment: metrics
(delivered CPU per period, deadline misses, switch overhead) and the
ASCII Gantt charts that regenerate the paper's Figures 3-5 are both
computed from it, never from scheduler internals.
"""

from __future__ import annotations

import enum
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import compress

from repro.errors import SimulationError


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


#: Column widths, as ``array`` type codes.  Tick times are int64.  Ids
#: and period indices are int32.  Per-period tick counts (a grant, its
#: delivery, a switch's cost) are unsigned 32-bit: the paper's 159 s
#: period cap is the largest 27 MHz count that fits.  Enum kinds and
#: flags are int8, a kind stored as its member's index.
_TIME = "q"
_ID = "i"
_TICKS = "I"
_CODE = "b"

#: Stored for ``None`` in an id column (``charged_to``, a switch's ends).
_NO_ID = -(2**31)

_SEGMENT_KINDS = tuple(SegmentKind)
_SWITCH_KINDS = tuple(SwitchKind)
# Keyed by ``_value_`` (a str, hashed in C) rather than by the member,
# whose ``__hash__`` is Python code.
_SEGMENT_CODE = {kind._value_: code for code, kind in enumerate(_SEGMENT_KINDS)}
_SWITCH_CODE = {kind._value_: code for code, kind in enumerate(_SWITCH_KINDS)}
_FLAG = (False, True)


def _segment(thread_id, start, end, kind, period_index, charged_to) -> RunSegment:
    return RunSegment(
        thread_id,
        start,
        end,
        _SEGMENT_KINDS[kind],
        period_index,
        None if charged_to == _NO_ID else charged_to,
    )


def _switch(time, from_thread, to_thread, kind, cost_ticks) -> ContextSwitchRecord:
    return ContextSwitchRecord(
        time,
        None if from_thread == _NO_ID else from_thread,
        None if to_thread == _NO_ID else to_thread,
        _SWITCH_KINDS[kind],
        cost_ticks,
    )


def _deadline(
    thread_id, period_index, period_start, deadline, granted, delivered, missed, voided
) -> DeadlineRecord:
    return DeadlineRecord(
        thread_id,
        period_index,
        period_start,
        deadline,
        granted,
        delivered,
        _FLAG[missed],
        _FLAG[voided],
    )


class RecordView(Sequence):
    """One table of the trace: typed columns, read as frozen records.

    A record is built on access — indexing builds one, a slice builds
    only its rows, iteration builds each row as it is reached — and the
    view is live: it always reads the columns as they are now.  It
    compares equal to a list (or tuple) of the same records.
    """

    __slots__ = ("name", "fields", "columns", "_build")

    def __init__(self, name: str, fields: tuple[tuple[str, str], ...], build) -> None:
        self.name = name
        self.fields = tuple(field for field, _ in fields)
        self.columns = tuple(array(code) for _, code in fields)
        self._build = build

    def __len__(self) -> int:
        return len(self.columns[-1])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(map(self._build, *[column[index] for column in self.columns]))
        return self._build(*[column[index] for column in self.columns])

    def __iter__(self):
        return map(self._build, *self.columns)

    def __eq__(self, other) -> bool:
        if isinstance(other, (RecordView, list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"<{self.name}: {len(self)} rows>"

    def select(self, mask) -> list:
        """The records whose entry in ``mask`` (one per row) is true."""
        return list(
            map(self._build, *[compress(column, mask) for column in self.columns])
        )

    def overflow(self, field: str | None = None) -> SimulationError:
        """The error for a row that did not fit, after dropping the part
        of it that was appended.  The field named is ``field``, or the
        first column the row did not reach (rows append in field order)."""
        lengths = [len(column) for column in self.columns]
        rows = min(lengths)
        if field is None:
            field = self.fields[lengths.index(rows)]
        for column in self.columns:
            del column[rows:]
        code = self.columns[self.fields.index(field)].typecode
        return SimulationError(
            f"{self.name} field {field} does not fit its column (an int, {code!r})"
        )


class TraceRecorder:
    """Accumulates the trace of a simulation run, one table per kind.

    Run segments, context switches and period closes are stored as
    struct-of-arrays: one typed ``array`` column per record field, one
    row per record (the widths are beside ``_TIME``).  The kernel
    hands the recorder scalars; :attr:`segments`, :attr:`switches` and
    :attr:`deadlines` are read-only live views that build the frozen
    :class:`RunSegment` / :class:`ContextSwitchRecord` /
    :class:`DeadlineRecord` on access.  A value that does not fit its
    column raises :class:`~repro.errors.SimulationError` naming the field.

    Contiguous chunks of the same run coalesce: the open segment is the
    last row, and a chunk that continues it (same thread, kind, period
    and charge, starting where it ended) rewrites its ``end`` in place —
    one row per *run on the CPU*, not per compute chunk.  The coalescing
    compare reads cached copies of the last row's fields.

    Grant changes, blocks and notes are rare and stay lists of records.
    """

    def __init__(self) -> None:
        self.segments = RecordView(
            "segment",
            (
                ("thread_id", _ID),
                ("start", _TIME),
                ("end", _TIME),
                ("kind", _CODE),
                ("period_index", _ID),
                ("charged_to", _ID),
            ),
            _segment,
        )
        self.switches = RecordView(
            "switch",
            (
                ("time", _TIME),
                ("from_thread", _ID),
                ("to_thread", _ID),
                ("kind", _CODE),
                ("cost_ticks", _TICKS),
            ),
            _switch,
        )
        self.deadlines = RecordView(
            "deadline",
            (
                ("thread_id", _ID),
                ("period_index", _ID),
                ("period_start", _TIME),
                ("deadline", _TIME),
                ("granted", _TICKS),
                ("delivered", _TICKS),
                ("missed", _CODE),
                ("voided", _CODE),
            ),
            _deadline,
        )
        self.grant_changes: list[GrantChangeRecord] = []
        self.blocks: list[BlockRecord] = []
        #: Free-form annotations (time, text) for experiment narration.
        self.notes: list[tuple[int, str]] = []
        (
            self._seg_thread,
            self._seg_start,
            self._seg_end,
            self._seg_kind,
            self._seg_period,
            self._seg_charged,
        ) = self.segments.columns
        #: The last segment row's fields, for the coalescing compare;
        #: ``_last_thread`` is None while there is no row.
        self._last_thread: int | None = None
        self._last_end = 0
        self._last_kind: SegmentKind | None = None
        self._last_period = -1
        self._last_charged: int | None = None

    def flush(self) -> None:
        """Nothing to do: the open segment is already the last row.

        Kept as a name because ``benchmarks/e2e/trace.py`` wraps it and
        subtracts its calls from the recorder's record count.
        """

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

        Coalesces with the last row when execution is contiguous — a
        thread computing in many small chunks is one run on the CPU,
        not many.
        """
        if end <= start:
            if end < start:
                raise ValueError(
                    f"segment ends before it starts: thread {thread_id} "
                    f"{start}..{end}"
                )
            return
        if (
            self._last_thread == thread_id
            and self._last_kind is kind
            and self._last_period == period_index
            and self._last_charged == charged_to
            and self._last_end == start
        ):
            try:
                self._seg_end[-1] = end
            except (OverflowError, TypeError) as exc:
                raise self.segments.overflow("end") from exc
            self._last_end = end
            return
        try:
            self._seg_thread.append(thread_id)
            self._seg_start.append(start)
            self._seg_end.append(end)
            self._seg_kind.append(_SEGMENT_CODE[kind._value_])
            self._seg_period.append(period_index)
            self._seg_charged.append(_NO_ID if charged_to is None else charged_to)
        except (OverflowError, TypeError) as exc:
            raise self.segments.overflow() from exc
        self._last_thread = thread_id
        self._last_end = end
        self._last_kind = kind
        self._last_period = period_index
        self._last_charged = charged_to

    def record_switch(
        self,
        time: int,
        from_thread: int | None,
        to_thread: int | None,
        kind: SwitchKind,
        cost_ticks: int,
    ) -> None:
        columns = self.switches.columns
        try:
            columns[0].append(time)
            columns[1].append(_NO_ID if from_thread is None else from_thread)
            columns[2].append(_NO_ID if to_thread is None else to_thread)
            columns[3].append(_SWITCH_CODE[kind._value_])
            columns[4].append(cost_ticks)
        except (OverflowError, TypeError) as exc:
            raise self.switches.overflow() from exc

    def record_deadline(
        self,
        thread_id: int,
        period_index: int,
        period_start: int,
        deadline: int,
        granted: int,
        delivered: int,
        missed: bool,
        voided: bool = False,
    ) -> None:
        columns = self.deadlines.columns
        try:
            columns[0].append(thread_id)
            columns[1].append(period_index)
            columns[2].append(period_start)
            columns[3].append(deadline)
            columns[4].append(granted)
            columns[5].append(delivered)
            columns[6].append(missed)
            columns[7].append(voided)
        except (OverflowError, TypeError) as exc:
            raise self.deadlines.overflow() from exc

    def record_grant_change(self, record: GrantChangeRecord) -> None:
        self.grant_changes.append(record)

    def record_block(self, record: BlockRecord) -> None:
        self.blocks.append(record)

    def note(self, time: int, text: str) -> None:
        self.notes.append((time, text))

    # -- convenience queries used by metrics and tests ------------------
    # Each scans columns and builds only the records it returns.

    def segments_for(self, thread_id: int) -> list[RunSegment]:
        """All run segments of one thread, in time order."""
        return self.segments.select([t == thread_id for t in self._seg_thread])

    def busy_ticks(self, thread_id: int, start: int = 0, end: int | None = None) -> int:
        """Total CPU ticks ``thread_id`` held within ``[start, end)``."""
        total = 0
        for tid, lo, hi in zip(self._seg_thread, self._seg_start, self._seg_end):
            if tid != thread_id:
                continue
            if lo < start:
                lo = start
            if end is not None and hi > end:
                hi = end
            if hi > lo:
                total += hi - lo
        return total

    def switch_count(self, kind: SwitchKind | None = None) -> int:
        if kind is None:
            return len(self.switches)
        return self.switches.columns[3].count(_SWITCH_CODE[kind._value_])

    def switch_cost_ticks(self, kind: SwitchKind | None = None) -> int:
        _, _, _, kinds, costs = self.switches.columns
        if kind is None:
            return sum(costs)
        code = _SWITCH_CODE[kind._value_]
        return sum(compress(costs, [k == code for k in kinds]))

    def misses(self, thread_id: int | None = None) -> list[DeadlineRecord]:
        tids, *_, missed, _ = self.deadlines.columns
        if thread_id is None:
            return self.deadlines.select(missed)
        return self.deadlines.select(
            [m and t == thread_id for t, m in zip(tids, missed)]
        )

    def missed_count(self, start: int = 0) -> int:
        """How many period closes from row ``start`` on missed."""
        return sum(self.deadlines.columns[6][start:])

    def deadlines_for(self, thread_id: int) -> list[DeadlineRecord]:
        return self.deadlines.select(
            [t == thread_id for t in self.deadlines.columns[0]]
        )
