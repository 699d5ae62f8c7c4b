"""Property: the columnar trace reads back as the record lists it replaced.

``TraceRecorder`` stores run segments, switches and period closes as
typed columns and builds each record on access.  Until it did, it kept
one frozen record per row, with the open run in scalar fields that a
read flushed into the list (and a later continuing run reopened).
:class:`ReferenceTraceRecorder` is that recorder, verbatim.  Both are
driven with the same drawn stream — contiguous and broken runs, changes
of kind, period and charge, zero-length runs, switches of both kinds,
period closes with ``missed`` and ``voided`` — and at every read in the
stream the views, their slices and indices, and every query must equal
the reference's lists.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.trace import (
    SEGMENT_IDLE,
    ContextSwitchRecord,
    DeadlineRecord,
    RunSegment,
    SegmentKind,
    SwitchKind,
    TraceRecorder,
)


class ReferenceTraceRecorder:
    """The record-list recorder ``TraceRecorder`` replaced.

    Run segments were recorded through a **batched open-segment buffer**:
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
    the last read.  (``TraceRecorder`` has no buffer: its open run is
    its last segment row, and its views read the columns live.)
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
        """All run segments recorded so far (flushes this recorder's
        open buffer).

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


THREADS = (-1, 0, 1, 2, 3)

run_op = st.tuples(
    st.just("run"),
    st.sampled_from(THREADS),
    st.one_of(st.just(0), st.integers(1, 50)),  # gap: 0 is contiguous
    st.integers(0, 40),  # length: 0 is a zero-length run
    st.sampled_from(tuple(SegmentKind)),
    st.sampled_from((-1, 0, 1, 7)),
    st.sampled_from((None, 1, 2)),
)
switch_op = st.tuples(
    st.just("switch"),
    st.sampled_from((None, *THREADS)),
    st.sampled_from((None, *THREADS)),
    st.sampled_from(tuple(SwitchKind)),
    st.integers(0, 2_000),
)
close_op = st.tuples(
    st.just("close"),
    st.sampled_from(THREADS),
    st.integers(-1, 9),
    st.integers(0, 10_000),
    st.integers(0, 4_000),
    st.integers(0, 4_000),
    st.booleans(),
    st.booleans(),
)
read_op = st.tuples(st.just("read"), st.integers(0, 8), st.integers(-8, 8))


def assert_same(trace: TraceRecorder, reference: ReferenceTraceRecorder, k: int, i: int):
    for view, rows in (
        (trace.segments, reference.segments),
        (trace.switches, reference.switches),
        (trace.deadlines, reference.deadlines),
    ):
        assert view == rows
        assert list(view) == rows
        assert len(view) == len(rows)
        assert view[-k:] == rows[-k:]
        assert view[k:] == rows[k:]
        assert view[i:k] == rows[i:k]
        if -len(rows) <= i < len(rows):
            assert view[i] == rows[i]
    for tid in THREADS:
        assert trace.segments_for(tid) == reference.segments_for(tid)
        assert trace.busy_ticks(tid) == reference.busy_ticks(tid)
        assert trace.busy_ticks(tid, 20, 200) == reference.busy_ticks(tid, 20, 200)
        assert trace.misses(tid) == reference.misses(tid)
        assert trace.deadlines_for(tid) == reference.deadlines_for(tid)
    for kind in (None, *SwitchKind):
        assert trace.switch_count(kind) == reference.switch_count(kind)
        assert trace.switch_cost_ticks(kind) == reference.switch_cost_ticks(kind)
    assert trace.misses() == reference.misses()
    assert trace.missed_count(k) == sum(d.missed for d in reference.deadlines[k:])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(run_op, switch_op, close_op, read_op), max_size=60))
def test_views_read_back_as_the_reference_records(ops):
    trace, reference = TraceRecorder(), ReferenceTraceRecorder()
    now = 0
    for op in ops:
        if op[0] == "run":
            _, tid, gap, length, kind, period, charged = op
            start = now + gap
            now = start + length
            trace.record_run(tid, start, now, kind, period, charged)
            reference.record_run(tid, start, now, kind, period, charged)
        elif op[0] == "switch":
            fields = (now, *op[1:])
            trace.record_switch(*fields)
            reference.record_switch(ContextSwitchRecord(*fields))
        elif op[0] == "close":
            trace.record_deadline(*op[1:])
            reference.record_deadline(DeadlineRecord(*op[1:]))
        else:
            assert_same(trace, reference, op[1], op[2])
    assert_same(trace, reference, 1, -1)
