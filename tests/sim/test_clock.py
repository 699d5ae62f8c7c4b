"""Simulated clocks: monotonicity and drift arithmetic."""

import pytest

from repro.errors import ClockError
from repro.sim.clock import DriftingClock, SimClock, TCIClock


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0

    def test_advance(self):
        clock = SimClock()
        assert clock.advance(100) == 100
        assert clock.now == 100

    def test_advance_to(self):
        clock = SimClock()
        clock.advance_to(500)
        assert clock.now == 500

    def test_rejects_negative_advance(self):
        with pytest.raises(ClockError):
            SimClock().advance(-1)

    def test_rejects_backwards_advance_to(self):
        clock = SimClock(start=100)
        with pytest.raises(ClockError):
            clock.advance_to(50)

    def test_rejects_negative_start(self):
        with pytest.raises(ClockError):
            SimClock(start=-5)


class TestDriftingClock:
    def test_zero_skew_tracks_master(self):
        clock = DriftingClock("ext")
        assert clock.read(1_000_000) == pytest.approx(1_000_000)

    def test_positive_skew_runs_fast(self):
        clock = DriftingClock("ext", skew_ppm=100.0)
        # +100 ppm over 1e6 ticks -> 100 extra ticks.
        assert clock.read(1_000_000) == pytest.approx(1_000_100)

    def test_negative_skew_runs_slow(self):
        clock = DriftingClock("ext", skew_ppm=-50.0)
        assert clock.read(1_000_000) == pytest.approx(999_950)

    def test_skew_change_keeps_reading_continuous(self):
        clock = DriftingClock("ext", skew_ppm=100.0)
        before = clock.read(1_000_000)
        clock.set_skew_ppm(-100.0, master_now=1_000_000)
        assert clock.read(1_000_000) == pytest.approx(before)
        # From here it drifts the other way.
        later = clock.read(2_000_000)
        assert later == pytest.approx(before + 1_000_000 * (1 - 100e-6))

    def test_rejects_reading_before_anchor(self):
        clock = DriftingClock("ext")
        clock.set_skew_ppm(10.0, master_now=100)
        with pytest.raises(ClockError):
            clock.read(50)

    def test_read_ticks_truncates(self):
        clock = DriftingClock("ext", skew_ppm=1.0)
        reading = clock.read(123_456)
        assert int(reading) == 123_456 and reading > 123_456


class TestTCIClock:
    def test_defaults_to_zero_skew(self):
        assert TCIClock().skew_ppm == 0.0

    def test_named_stream_clock(self):
        clock = TCIClock(name="stream2", skew_ppm=30.0)
        assert clock.name == "stream2"
        assert clock.read(1_000_000) > 1_000_000
