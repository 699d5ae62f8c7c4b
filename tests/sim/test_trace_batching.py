"""TraceRecorder batching: the open-segment buffer and its flush rules.

``record_run`` holds the most recent run in scalar fields and extends
it in place when the next run continues it (same thread, kind, period,
charge, and contiguous in time), materializing a RunSegment only when a
non-continuing run arrives or a reader forces a flush.  The queries all
go through the flushing ``segments`` property, so batching is invisible
to every consumer.  That property is the reader contract: nothing else
flushes — the kernel leaves the open run open when ``run_until``
returns, so the next slice of the same run extends it in place — and a
captured reference to the list is only as fresh as the last read.  The
obs session therefore registers ``lambda: trace.segments`` for its lazy
Perfetto export, never the list object.
"""

from repro import MachineConfig, ResourceDistributor, SimConfig, units
from repro.sim.trace import RunSegment, SegmentKind, TraceRecorder
from repro.workloads import single_entry_definition


def record(trace, tid, start, end, kind=SegmentKind.GRANTED, **kwargs):
    trace.record_run(tid, start, end, kind, **kwargs)


class TestCoalescing:
    def test_contiguous_same_thread_runs_merge(self):
        trace = TraceRecorder()
        record(trace, 1, 0, 10)
        record(trace, 1, 10, 25)
        record(trace, 1, 25, 30)
        assert [(s.start, s.end) for s in trace.segments] == [(0, 30)]

    def test_gap_breaks_the_batch(self):
        trace = TraceRecorder()
        record(trace, 1, 0, 10)
        record(trace, 1, 15, 20)
        assert [(s.start, s.end) for s in trace.segments] == [(0, 10), (15, 20)]

    def test_thread_change_breaks_the_batch(self):
        trace = TraceRecorder()
        record(trace, 1, 0, 10)
        record(trace, 2, 10, 20)
        assert [s.thread_id for s in trace.segments] == [1, 2]

    def test_kind_change_breaks_the_batch(self):
        trace = TraceRecorder()
        record(trace, 1, 0, 10, SegmentKind.GRANTED)
        record(trace, 1, 10, 20, SegmentKind.OVERTIME)
        assert [s.kind for s in trace.segments] == [
            SegmentKind.GRANTED,
            SegmentKind.OVERTIME,
        ]

    def test_period_and_charge_participate_in_the_match(self):
        trace = TraceRecorder()
        record(trace, 1, 0, 10, period_index=0)
        record(trace, 1, 10, 20, period_index=1)
        assert len(trace.segments) == 2
        trace = TraceRecorder()
        record(trace, 1, 0, 10, charged_to=5)
        record(trace, 1, 10, 20, charged_to=6)
        assert len(trace.segments) == 2

    def test_coalescing_survives_an_interleaved_read(self):
        """A reader mid-run flushes the open buffer; a continuing run
        arriving afterwards must still merge (de-materialization), so
        observation never changes the recorded trace."""
        trace = TraceRecorder()
        record(trace, 1, 0, 10)
        assert [(s.start, s.end) for s in trace.segments] == [(0, 10)]
        record(trace, 1, 10, 20)
        assert [(s.start, s.end) for s in trace.segments] == [(0, 20)]
        assert len(trace.segments) == 1


class TestFlushSemantics:
    def test_flush_is_idempotent(self):
        trace = TraceRecorder()
        record(trace, 1, 0, 10)
        trace.flush()
        trace.flush()
        assert len(trace.segments) == 1

    def test_segments_property_returns_the_live_list_object(self):
        """Every read flushes into and returns the same list object —
        and only a read does: a captured reference lacks the open run
        until somebody goes through the property again."""
        trace = TraceRecorder()
        captured = trace.segments
        record(trace, 1, 0, 10)
        record(trace, 2, 10, 20)
        assert [(s.thread_id, s.start, s.end) for s in captured] == [(1, 0, 10)]
        assert trace.segments is captured
        assert [(s.thread_id, s.start, s.end) for s in captured] == [
            (1, 0, 10),
            (2, 10, 20),
        ]

    def test_run_until_leaves_the_open_run_open(self):
        """Nobody flushes on the way out of the kernel: the run that is
        on the CPU when ``run_until`` returns stays in the buffer, and
        the next slice extends it instead of reopening it."""
        rd = ResourceDistributor(machine=MachineConfig.ideal(), sim=SimConfig(seed=7))
        rd.admit(single_entry_definition("greedy", 10, 0.5, greedy=True))
        rd.run_for(units.ms_to_ticks(2))
        assert rd.trace._open_thread is not None
        materialized = len(rd.trace._segments)
        rd.run_for(units.ms_to_ticks(2))
        assert len(rd.trace._segments) == materialized
        assert [(s.start, s.end) for s in rd.trace.segments] == [
            (0, units.ms_to_ticks(4))
        ]

    def test_queries_see_the_open_buffer(self):
        trace = TraceRecorder()
        record(trace, 1, 0, 10)
        assert trace.busy_ticks(1) == 10
        assert [s.thread_id for s in trace.segments_for(1)] == [1]


class TestRecordSegmentCompat:
    def test_record_segment_feeds_the_same_batcher(self):
        trace = TraceRecorder()
        trace.record_segment(
            RunSegment(thread_id=1, start=0, end=10, kind=SegmentKind.GRANTED)
        )
        trace.record_segment(
            RunSegment(thread_id=1, start=10, end=20, kind=SegmentKind.GRANTED)
        )
        assert [(s.start, s.end) for s in trace.segments] == [(0, 20)]
