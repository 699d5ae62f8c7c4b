"""TraceRecorder coalescing: the open segment is the last row.

``record_run`` compares a run with cached copies of the last row's
fields and, when the run continues it (same thread, kind, period,
charge, and contiguous in time), rewrites that row's ``end`` in place.
``flush`` has nothing to do.  ``trace.segments`` is a live view over the
columns: a reference held from an earlier read sees every row recorded
since, the open run included, so the obs session's lazy Perfetto export
and any other reader see the run still on the CPU.
"""

from repro import MachineConfig, ResourceDistributor, SimConfig, units
from repro.sim.trace import SegmentKind, TraceRecorder
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
        """A read between two chunks of one run changes nothing: the
        continuing chunk still extends the last row."""
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

    def test_segments_view_is_live(self):
        """Every read returns the same view object, and a reference held
        from an earlier read sees the rows recorded since — the open
        run's extension included."""
        trace = TraceRecorder()
        captured = trace.segments
        record(trace, 1, 0, 10)
        record(trace, 2, 10, 20)
        assert trace.segments is captured
        assert [(s.thread_id, s.start, s.end) for s in captured] == [
            (1, 0, 10),
            (2, 10, 20),
        ]
        record(trace, 2, 20, 30)
        assert captured[-1].end == 30

    def test_run_until_leaves_the_open_run_open(self):
        """The run on the CPU when ``run_until`` returns is the last
        row, and the next slice extends that row instead of adding
        one."""
        rd = ResourceDistributor(machine=MachineConfig.ideal(), sim=SimConfig(seed=7))
        rd.admit(single_entry_definition("greedy", 10, 0.5, greedy=True))
        rd.run_for(units.ms_to_ticks(2))
        rows = len(rd.trace.segments)
        rd.run_for(units.ms_to_ticks(2))
        assert len(rd.trace.segments) == rows
        assert [(s.start, s.end) for s in rd.trace.segments] == [
            (0, units.ms_to_ticks(4))
        ]

    def test_queries_see_the_open_buffer(self):
        trace = TraceRecorder()
        record(trace, 1, 0, 10)
        assert trace.busy_ticks(1) == 10
        assert [s.thread_id for s in trace.segments_for(1)] == [1]
