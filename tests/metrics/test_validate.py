"""Trace validator: catches exactly the broken invariants."""

import pytest

from repro import units
from repro.metrics import validate_trace
from repro.sim.trace import SegmentKind, TraceRecorder


def seg(tid, start, end, kind=SegmentKind.GRANTED, period=0, charged=None):
    """A segment's fields, in ``record_run`` order."""
    return (tid, start, end, kind, period, charged)


def deadline(tid, idx, start, end, granted, delivered, missed=False, voided=False):
    """A period close's fields, in ``record_deadline`` order."""
    return (tid, idx, start, end, granted, delivered, missed, voided)


class TestCleanTrace:
    def test_real_run_validates(self, ideal_rd):
        from tests.conftest import admit_simple

        admit_simple(ideal_rd, "a", period_ms=10, rate=0.4)
        admit_simple(ideal_rd, "b", period_ms=20, rate=0.3, greedy=True)
        ideal_rd.run_for(units.ms_to_ticks(100))
        report = validate_trace(ideal_rd.trace, end_time=ideal_rd.now)
        assert report.ok, report.summary()
        assert report.checked_segments > 0
        assert report.checked_deadlines > 0

    def test_empty_trace_is_clean_except_conservation(self):
        report = validate_trace(TraceRecorder())
        assert report.ok


class TestViolationDetection:
    def test_cpu_overlap_detected(self):
        trace = TraceRecorder()
        trace.record_run(*seg(1, 0, 100))
        trace.record_run(*seg(2, 50, 150))
        report = validate_trace(trace)
        assert any(v.rule == "cpu-overlap" for v in report.violations)

    def test_over_delivery_detected(self):
        trace = TraceRecorder()
        trace.record_deadline(*deadline(1, 0, 0, 100, granted=50, delivered=60))
        report = validate_trace(trace)
        assert any(v.rule == "over-delivery" for v in report.violations)

    def test_phantom_miss_detected(self):
        trace = TraceRecorder()
        trace.record_deadline(
            *deadline(1, 0, 0, 100, granted=50, delivered=50, missed=True)
        )
        report = validate_trace(trace)
        assert any(v.rule == "phantom-miss" for v in report.violations)

    def test_miss_and_void_conflict_detected(self):
        trace = TraceRecorder()
        trace.record_deadline(
            *deadline(1, 0, 0, 100, granted=50, delivered=0, missed=True, voided=True)
        )
        report = validate_trace(trace)
        assert any(v.rule == "miss-and-void" for v in report.violations)

    def test_grant_overrun_detected(self):
        trace = TraceRecorder()
        trace.record_run(*seg(1, 0, 80, period=0))
        trace.record_deadline(*deadline(1, 0, 0, 100, granted=50, delivered=50))
        report = validate_trace(trace)
        assert any(v.rule == "grant-overrun" for v in report.violations)

    def test_period_index_gap_detected(self):
        trace = TraceRecorder()
        trace.record_deadline(*deadline(1, 0, 0, 100, 50, 50))
        trace.record_deadline(*deadline(1, 2, 200, 300, 50, 50))
        report = validate_trace(trace)
        assert any(v.rule == "period-index-gap" for v in report.violations)

    def test_period_pulled_in_detected(self):
        trace = TraceRecorder()
        trace.record_deadline(*deadline(1, 0, 0, 100, 50, 50))
        trace.record_deadline(*deadline(1, 1, 90, 190, 50, 50))
        report = validate_trace(trace)
        assert any(v.rule == "period-pulled-in" for v in report.violations)

    def test_conservation_gap_detected(self):
        trace = TraceRecorder()
        trace.record_run(*seg(1, 0, 40))
        report = validate_trace(trace, end_time=100)
        assert any(v.rule == "conservation" for v in report.violations)

    def test_assigned_without_charge_detected(self):
        trace = TraceRecorder()
        trace.record_run(*seg(3, 0, 10, kind=SegmentKind.ASSIGNED))
        report = validate_trace(trace)
        assert any(v.rule == "assigned-charge" for v in report.violations)


class TestReport:
    def test_summary_mentions_status(self):
        trace = TraceRecorder()
        trace.record_run(*seg(1, 0, 40))
        ok = validate_trace(trace)
        assert "OK" in ok.summary()
        bad = validate_trace(trace, end_time=100)
        assert "violation" in bad.summary()
        assert "conservation" in bad.summary()
