"""Processor Capacity Reserves baseline: enforcement + over-reservation."""

import pytest

from repro import AdmissionError, MachineConfig, SimConfig, units
from repro.baselines import ReservesSystem
from repro.core.distributor import ResourceDistributor
from repro.tasks.busyloop import busyloop_definition
from repro.workloads import single_entry_definition


def ms(x):
    return units.ms_to_ticks(x)


def make_system():
    return ReservesSystem(machine=MachineConfig.ideal(), sim=SimConfig(seed=7))


class TestReservations:
    def test_reserved_tasks_meet_deadlines(self):
        system = make_system()
        threads = [
            system.admit(single_entry_definition(f"t{i}", 10, 0.3)) for i in range(3)
        ]
        system.run_for(ms(100))
        assert not system.trace.misses()
        for t in threads:
            assert len(system.trace.deadlines_for(t.tid)) >= 9

    def test_misbehaving_task_cannot_impinge_on_reserved(self):
        system = make_system()
        hog = system.admit(single_entry_definition("hog", 10, 0.5, greedy=True))
        polite = system.admit(single_entry_definition("polite", 10, 0.4))
        system.run_for(ms(100))
        assert not system.trace.misses(polite.tid)


class TestOverReservation:
    """The RD paper's critique: reservations foster over-reservation."""

    def test_admission_denied_where_rd_degrades(self):
        # Three tasks whose maxima are 50 % but minima are 10 %.
        defs = [busyloop_definition(f"t{i}", steps=9) for i in range(3)]

        reserves = make_system()
        reserves.admit(defs[0], entry_index=4)  # reserve 50 %
        reserves.admit(defs[1], entry_index=4)
        with pytest.raises(AdmissionError):
            reserves.admit(defs[2], entry_index=4)  # 150 % > capacity

        # The Resource Distributor admits all three by shedding load.
        rd = ResourceDistributor(machine=MachineConfig.ideal(), sim=SimConfig(seed=7))
        for d in [busyloop_definition(f"r{i}", steps=9) for i in range(3)]:
            rd.admit(d)
        rd.run_for(ms(50))
        assert not rd.trace.misses()

    def test_reserved_total_visible(self):
        system = make_system()
        system.admit(single_entry_definition("a", 10, 0.5))
        system.admit(single_entry_definition("b", 10, 0.3))
        reserved = sum(t.grant.rate for t in system.kernel.periodic_threads())
        assert reserved == pytest.approx(0.8)

    def test_reserved_but_unused_time_is_wasted_capacity(self):
        # A task reserving 60 % but using 10 % still blocks admission of
        # a 50 % task — the over-reservation waste.
        system = make_system()

        from repro.core.resource_list import ResourceList, ResourceListEntry
        from repro.tasks.base import Compute, DonePeriod, TaskDefinition

        def light_user(ctx):
            yield Compute(ms(1))
            yield DonePeriod()

        over = TaskDefinition(
            name="over",
            resource_list=ResourceList(
                [ResourceListEntry(ms(10), ms(6), light_user, "over")]
            ),
        )
        system.admit(over)
        with pytest.raises(AdmissionError):
            system.admit(single_entry_definition("denied", 10, 0.5))
