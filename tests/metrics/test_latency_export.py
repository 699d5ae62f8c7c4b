"""Latency stats (2P-2C bound)."""

import pytest

from repro import units
from repro.metrics import completion_times, latency_stats

from tests.conftest import admit_simple


def ms(x):
    return units.ms_to_ticks(x)


@pytest.fixture
def busy_run(ideal_rd):
    thread = admit_simple(ideal_rd, "t", period_ms=10, rate=0.3)
    admit_simple(ideal_rd, "noise", period_ms=7, rate=0.5, greedy=True)
    ideal_rd.run_for(ms(300))
    return ideal_rd, thread


class TestLatency:
    def test_completions_one_per_period(self, busy_run):
        rd, thread = busy_run
        times = completion_times(rd.trace, thread.tid)
        assert len(times) == len(rd.trace.deadlines_for(thread.tid))
        assert times == sorted(times)

    def test_gaps_respect_the_paper_bound(self, busy_run):
        rd, thread = busy_run
        stats = latency_stats(rd.trace, thread.tid, period=ms(10), cpu=ms(3))
        assert stats is not None
        assert stats.bound == 2 * ms(10) - 2 * ms(3)
        assert stats.completion_bound == 2 * ms(10) - ms(3)
        assert stats.max_service_gap <= stats.bound
        assert stats.max_gap <= stats.completion_bound
        assert stats.within_bound

    def test_service_intervals_cover_the_grant(self, busy_run):
        from repro.metrics import max_service_gap, service_intervals

        rd, thread = busy_run
        intervals = service_intervals(rd.trace, thread.tid)
        assert intervals == sorted(intervals)
        assert all(a < b for a, b in intervals)
        delivered = sum(b - a for a, b in intervals)
        assert delivered == sum(d.delivered for d in rd.trace.deadlines_for(thread.tid))
        gap = max_service_gap(rd.trace, thread.tid)
        assert gap == max(
            b[0] - a[1] for a, b in zip(intervals, intervals[1:])
        )

    def test_mean_gap_close_to_period(self, busy_run):
        rd, thread = busy_run
        stats = latency_stats(rd.trace, thread.tid, period=ms(10), cpu=ms(3))
        assert stats.mean_gap == pytest.approx(ms(10), rel=0.05)

    def test_none_without_two_completions(self, ideal_rd):
        thread = admit_simple(ideal_rd, "t", period_ms=100, rate=0.1)
        ideal_rd.run_for(ms(50))  # period 0 not even closed
        assert latency_stats(ideal_rd.trace, thread.tid, ms(100), ms(10)) is None
