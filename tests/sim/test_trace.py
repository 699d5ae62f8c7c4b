"""Trace recorder: record validation and query helpers."""

from dataclasses import astuple

import pytest

from repro import units
from repro.errors import SimulationError
from repro.sim.trace import (
    ContextSwitchRecord,
    DeadlineRecord,
    SegmentKind,
    SwitchKind,
    TraceRecorder,
)


def seg(tid, start, end, kind=SegmentKind.GRANTED):
    """A segment's fields, in ``record_run`` order."""
    return (tid, start, end, kind)


def switch(time, kind, cost):
    return ContextSwitchRecord(
        time=time, from_thread=1, to_thread=2, kind=kind, cost_ticks=cost
    )


def deadline(tid, idx, missed=False, voided=False):
    return DeadlineRecord(
        thread_id=tid,
        period_index=idx,
        period_start=idx * 100,
        deadline=(idx + 1) * 100,
        granted=50,
        delivered=0 if missed else 50,
        missed=missed,
        voided=voided,
    )


class TestSegments:
    def test_zero_length_segments_dropped(self):
        trace = TraceRecorder()
        trace.record_run(*seg(1, 10, 10))
        assert trace.segments == []

    def test_rejects_negative_length(self):
        with pytest.raises(ValueError):
            TraceRecorder().record_run(*seg(1, 10, 5))

    def test_segments_for_filters_by_thread(self):
        trace = TraceRecorder()
        trace.record_run(*seg(1, 0, 10))
        trace.record_run(*seg(2, 10, 20))
        assert [s.thread_id for s in trace.segments_for(1)] == [1]

    def test_busy_ticks_clips_to_window(self):
        trace = TraceRecorder()
        trace.record_run(*seg(1, 0, 100))
        assert trace.busy_ticks(1, start=50, end=80) == 30

    def test_busy_ticks_sums_multiple_segments(self):
        trace = TraceRecorder()
        trace.record_run(*seg(1, 0, 10))
        trace.record_run(*seg(1, 20, 30))
        assert trace.busy_ticks(1) == 20


class TestSwitches:
    def test_switch_count_by_kind(self):
        trace = TraceRecorder()
        trace.record_switch(*astuple(switch(1, SwitchKind.VOLUNTARY, 300)))
        trace.record_switch(*astuple(switch(2, SwitchKind.INVOLUNTARY, 900)))
        trace.record_switch(*astuple(switch(3, SwitchKind.INVOLUNTARY, 950)))
        assert trace.switch_count() == 3
        assert trace.switch_count(SwitchKind.INVOLUNTARY) == 2

    def test_switch_cost_sums(self):
        trace = TraceRecorder()
        trace.record_switch(*astuple(switch(1, SwitchKind.VOLUNTARY, 300)))
        trace.record_switch(*astuple(switch(2, SwitchKind.INVOLUNTARY, 900)))
        assert trace.switch_cost_ticks() == 1200
        assert trace.switch_cost_ticks(SwitchKind.VOLUNTARY) == 300


class TestDeadlines:
    def test_misses_filters(self):
        trace = TraceRecorder()
        trace.record_deadline(*astuple(deadline(1, 0)))
        trace.record_deadline(*astuple(deadline(1, 1, missed=True)))
        trace.record_deadline(*astuple(deadline(2, 0, missed=True)))
        assert len(trace.misses()) == 2
        assert len(trace.misses(thread_id=1)) == 1

    def test_met_property(self):
        assert deadline(1, 0).met
        assert not deadline(1, 0, missed=True).met

    def test_deadlines_for(self):
        trace = TraceRecorder()
        trace.record_deadline(*astuple(deadline(1, 0)))
        trace.record_deadline(*astuple(deadline(2, 0)))
        assert len(trace.deadlines_for(1)) == 1


class TestNotes:
    def test_notes_accumulate(self):
        trace = TraceRecorder()
        trace.note(5, "phone rings")
        assert trace.notes == [(5, "phone rings")]


class TestColumns:
    def test_a_value_that_does_not_fit_names_its_field_and_adds_no_row(self):
        trace = TraceRecorder()
        trace.record_deadline(1, 0, 0, 100, 50, 50, False)
        with pytest.raises(SimulationError, match="deadline field granted does not fit"):
            trace.record_deadline(1, 1, 100, 200, 2**32, 0, True)
        with pytest.raises(SimulationError, match="segment field thread_id"):
            trace.record_run(2**31, 0, 10, SegmentKind.GRANTED)
        with pytest.raises(SimulationError, match="switch field cost_ticks"):
            trace.record_switch(5, 1, 2, SwitchKind.VOLUNTARY, -1)
        trace.record_run(1, 0, 10, SegmentKind.GRANTED)
        with pytest.raises(SimulationError, match="segment field end"):
            trace.record_run(1, 10, 2**63, SegmentKind.GRANTED)
        with pytest.raises(SimulationError, match="switch field cost_ticks"):
            trace.record_switch(5, 1, 2, SwitchKind.VOLUNTARY, 12.5)
        for view, rows in ((trace.deadlines, 1), (trace.segments, 1), (trace.switches, 0)):
            assert {len(column) for column in view.columns} == {rows}
        assert trace.segments[0].end == 10

    def test_the_longest_period_fits_a_tick_count_column(self):
        """A grant of the paper's whole 159 s period, in 27 MHz ticks."""
        trace = TraceRecorder()
        longest = units.MAX_PERIOD_TICKS
        trace.record_deadline(1, 0, 0, longest, longest, longest, False)
        assert trace.deadlines[0].granted == longest

    def test_none_round_trips(self):
        trace = TraceRecorder()
        trace.record_run(3, 0, 10, SegmentKind.ASSIGNED, 0, None)
        trace.record_switch(10, None, None, SwitchKind.INVOLUNTARY, 0)
        assert trace.segments[0].charged_to is None
        assert (trace.switches[0].from_thread, trace.switches[0].to_thread) == (None, None)

