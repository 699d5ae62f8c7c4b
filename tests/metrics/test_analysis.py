"""Switch-cost analysis (section 6.1 metrics)."""

from dataclasses import astuple

import pytest

from repro import units
from repro.metrics import SwitchStats, overhead_fraction, summarize_switches
from repro.metrics.analysis import switches_per_second
from repro.sim.trace import ContextSwitchRecord, SwitchKind, TraceRecorder


def switch(time, kind, cost_us, frm=1, to=2):
    return ContextSwitchRecord(
        time=time,
        from_thread=frm,
        to_thread=to,
        kind=kind,
        cost_ticks=units.us_to_ticks(cost_us),
    )


@pytest.fixture
def trace():
    t = TraceRecorder()
    t.record_switch(*astuple(switch(100, SwitchKind.VOLUNTARY, 12.0)))
    t.record_switch(*astuple(switch(200, SwitchKind.VOLUNTARY, 20.0)))
    t.record_switch(*astuple(switch(300, SwitchKind.INVOLUNTARY, 30.0, frm=2, to=1)))
    return t


class TestSummaries:
    def test_summarize_voluntary(self, trace):
        stats = summarize_switches(trace, SwitchKind.VOLUNTARY)
        assert stats.count == 2
        assert stats.min_us == pytest.approx(12.0, abs=0.1)
        assert stats.mean_us == pytest.approx(16.0, abs=0.1)
        assert stats.median_us == pytest.approx(16.0, abs=0.1)

    def test_empty_summary(self):
        stats = summarize_switches(TraceRecorder(), SwitchKind.VOLUNTARY)
        assert stats == SwitchStats.empty(SwitchKind.VOLUNTARY)


class TestOverhead:
    def test_overhead_fraction(self, trace):
        # 62 us of cost across a 27,000-tick (1 ms) window.
        frac = overhead_fraction(trace, 0, units.ms_to_ticks(1))
        assert frac == pytest.approx(62 / 1000, rel=0.01)

    def test_zero_window(self):
        assert overhead_fraction(TraceRecorder(), 0, 0) == 0.0


class TestCounting:
    def test_preemptions_per_thread(self, trace):
        preempted = [s.from_thread for s in trace.switches if s.kind is SwitchKind.INVOLUNTARY]
        assert preempted == [2]

    def test_switches_per_second(self, trace):
        rate = switches_per_second(trace, 0, units.sec_to_ticks(1))
        assert rate == pytest.approx(3.0)

    def test_switches_per_second_empty(self):
        assert switches_per_second(TraceRecorder()) == 0.0
