"""Interrupt reserve accounting."""

import pytest

from repro.machine.interrupts import InterruptReserve


class TestReserve:
    def test_default_is_four_percent(self):
        assert InterruptReserve().fraction == 0.04

    def test_schedulable_fraction(self):
        assert 1.0 - InterruptReserve(0.04).fraction == pytest.approx(0.96)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            InterruptReserve(1.0)
        with pytest.raises(ValueError):
            InterruptReserve(-0.1)

    def test_charge_accumulates(self):
        reserve = InterruptReserve()
        reserve.charge(100)
        reserve.charge(50)
        assert reserve.consumed_ticks == 150

    def test_charge_rejects_negative(self):
        with pytest.raises(ValueError):
            InterruptReserve().charge(-1)

    def test_consumed_fraction(self):
        reserve = InterruptReserve()
        reserve.charge(40)
        assert reserve.consumed_fraction(1000) == pytest.approx(0.04)

    def test_within_reserve(self):
        reserve = InterruptReserve(0.04)
        reserve.charge(30)
        assert reserve.consumed_fraction(1000) <= reserve.fraction
        reserve.charge(20)
        assert reserve.consumed_fraction(1000) > reserve.fraction

    def test_zero_elapsed_is_zero_fraction(self):
        assert InterruptReserve().consumed_fraction(0) == 0.0
