"""Metrics: utilization, miss rates, allocation series."""

from dataclasses import astuple

import pytest

from repro import units
from repro.metrics import (
    allocation_series,
    miss_rate,
    qos_timeline,
    utilization,
)
from repro.sim.trace import (
    DeadlineRecord,
    GrantChangeRecord,
    SegmentKind,
    TraceRecorder,
)


@pytest.fixture
def trace():
    t = TraceRecorder()
    t.record_run(1, 0, 60, SegmentKind.GRANTED, 0)
    t.record_run(2, 60, 80, SegmentKind.GRANTED, 0)
    t.record_run(1, 80, 100, SegmentKind.OVERTIME, 0)
    t.record_deadline(
        *astuple(DeadlineRecord(1, 0, 0, 100, granted=60, delivered=60, missed=False))
    )
    t.record_deadline(
        *astuple(DeadlineRecord(2, 0, 0, 100, granted=40, delivered=20, missed=True))
    )
    t.record_deadline(
        *astuple(
            DeadlineRecord(
                2, 1, 100, 200, granted=40, delivered=0, missed=False, voided=True
            )
        )
    )
    return t


class TestUtilization:
    def test_shares_sum_to_one_over_busy_window(self, trace):
        u = utilization(trace, 0, 100)
        assert sum(u.values()) == pytest.approx(1.0)
        assert u[1] == pytest.approx(0.8)
        assert u[2] == pytest.approx(0.2)

    def test_window_clipping(self, trace):
        u = utilization(trace, 50, 70)
        assert u[1] == pytest.approx(0.5)
        assert u[2] == pytest.approx(0.5)

    def test_empty_window(self, trace):
        assert utilization(trace, 100, 100) == {}


class TestMissRate:
    def test_per_thread(self, trace):
        assert miss_rate(trace, 1) == 0.0
        assert miss_rate(trace, 2) == 1.0  # the voided period is excluded

    def test_global(self, trace):
        assert miss_rate(trace) == pytest.approx(0.5)

    def test_no_deadlines_is_zero(self):
        assert miss_rate(TraceRecorder()) == 0.0


class TestPerPeriod:
    def test_delivered_per_period_ordered(self, trace):
        outcomes = trace.deadlines_for(2)
        assert [o.period_index for o in outcomes] == [0, 1]
        assert outcomes[0].missed and not outcomes[0].voided
        assert outcomes[1].voided

    def test_allocation_series_counts_granted_only(self, trace):
        series = allocation_series(trace, 1)
        assert series == [(0, 60)]  # overtime excluded by default

    def test_allocation_series_with_overtime(self, trace):
        series = allocation_series(
            trace, 1, kinds=frozenset({SegmentKind.GRANTED, SegmentKind.OVERTIME})
        )
        assert series == [(0, 80)]


class TestQosTimeline:
    def test_timeline_from_grant_changes(self):
        t = TraceRecorder()
        t.record_grant_change(GrantChangeRecord(0, 1, 100, 50, entry_index=0))
        t.record_grant_change(GrantChangeRecord(500, 1, 100, 20, entry_index=2))
        t.record_grant_change(GrantChangeRecord(700, 2, 100, 10, entry_index=1))
        timeline = qos_timeline(t, 1)
        assert timeline == [(0, 0, 0.5), (500, 2, 0.2)]
