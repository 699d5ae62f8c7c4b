"""Interrupt-load injection: the section 5.2 reserve tradeoff, live."""

import pytest

from repro import ContextSwitchCosts, MachineConfig, SimConfig, units
from repro.core.distributor import ResourceDistributor
from repro.machine.interrupts import InterruptSource
from repro.workloads import single_entry_definition


def ms(x):
    return units.ms_to_ticks(x)


def make_rd(reserve):
    machine = MachineConfig(
        interrupt_reserve=reserve,
        switch_costs=ContextSwitchCosts.zero(),
        overlap_override_ticks=0,
        admission_cost_ticks=0,
    )
    return ResourceDistributor(machine=machine, sim=SimConfig(seed=52))


class TestInjection:
    def test_interrupts_fire_at_about_the_rate(self):
        rd = make_rd(0.04)
        source = InterruptSource("nic", rate_hz=1000, service_us=20)
        source.attach(rd.kernel, units.sec_to_ticks(1))
        rd.run_for(units.sec_to_ticks(1))
        assert source.fired == pytest.approx(1000, rel=0.1)

    def test_stolen_time_is_charged_to_the_reserve(self):
        rd = make_rd(0.04)
        source = InterruptSource("nic", rate_hz=1000, service_us=20)
        source.attach(rd.kernel, units.sec_to_ticks(1))
        rd.run_for(units.sec_to_ticks(1))
        # 1000/s x 20 us = 2 % of the CPU.
        assert rd.kernel.reserve.consumed_fraction(rd.now) == pytest.approx(
            0.02, rel=0.15
        )
        assert rd.kernel.reserve.consumed_fraction(rd.now) <= rd.kernel.reserve.fraction

    def test_validation_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            InterruptSource("x", rate_hz=0, service_us=10)
        with pytest.raises(ValueError):
            InterruptSource("x", rate_hz=100, service_us=0)
        with pytest.raises(ValueError):
            InterruptSource("x", rate_hz=100, service_us=10, jitter=1.5)


class TestReserveSizing:
    """The paper's tradeoff: the reserve must cover the interrupt load
    or admitted tasks lose their deadlines."""

    def _run(self, reserve, irq_fraction):
        rd = make_rd(reserve)
        # Fill the schedulable capacity almost completely.
        committed = 0.0
        i = 0
        while committed + 0.23 <= reserve_capacity(reserve):
            rd.admit(single_entry_definition(f"t{i}", 10, 0.23))
            committed += 0.23
            i += 1
        # Interrupt load: irq_fraction of the CPU in 25 us handlers.
        rate = irq_fraction / 25e-6
        source = InterruptSource("dev", rate_hz=rate, service_us=25)
        source.attach(rd.kernel, units.sec_to_ticks(1))
        rd.run_for(units.sec_to_ticks(1))
        return rd

    def test_load_within_reserve_keeps_guarantees(self):
        rd = self._run(reserve=0.08, irq_fraction=0.05)
        assert not rd.trace.misses()

    def test_load_beyond_reserve_breaks_guarantees(self):
        rd = self._run(reserve=0.04, irq_fraction=0.12)
        assert rd.trace.misses()


def reserve_capacity(reserve):
    return 1.0 - reserve
