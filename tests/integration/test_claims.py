"""Section 3.4/3.5 comparative claims, head-to-head on one overload.

Workload: three multimedia-style tasks, each wanting 50 % of the CPU at
a 10 ms period but able to shed to 10 % steps — 150 % of the machine.

* RD: admits all three, nobody misses, grants follow global policy.
* Naive EDF: cascading misses.
* SMART: fair share in overload; every task misses.
* Reserves: refuses the third task outright.
* Rialto: no misses but the victim is chosen by arrival order.
"""

import pytest

from repro import AdmissionError, MachineConfig, SimConfig, units
from repro.baselines import NaiveEdfSystem, ReservesSystem, RialtoSystem, SmartSystem
from repro.core.distributor import ResourceDistributor
from repro.metrics import miss_rate
from repro.tasks.busyloop import busyloop_definition
from repro.workloads import single_entry_definition

DURATION = units.ms_to_ticks(300)


def rd_system():
    rd = ResourceDistributor(machine=MachineConfig.ideal(), sim=SimConfig(seed=9))
    threads = [rd.admit(busyloop_definition(f"t{i}")) for i in range(3)]
    rd.run_for(DURATION)
    return rd, threads


def baseline(cls):
    system = cls(machine=MachineConfig.ideal(), sim=SimConfig(seed=9))
    threads = [
        system.admit(single_entry_definition(f"t{i}", 10, 0.5)) for i in range(3)
    ]
    system.run_for(DURATION)
    return system, threads


class TestResourceDistributor:
    def test_rd_admits_all_and_misses_nothing(self):
        rd, threads = rd_system()
        assert len(threads) == 3
        assert miss_rate(rd.trace) == 0.0

    def test_rd_degrades_to_discrete_useful_levels(self):
        rd, threads = rd_system()
        for t in threads:
            # Every grant is one of the task's own discrete levels.
            assert round(t.grant.rate * 10) == t.grant.rate * 10


class TestBaselineFailureModes:
    def test_naive_edf_cascades(self):
        system, threads = baseline(NaiveEdfSystem)
        assert miss_rate(system.trace) > 0.3

    def test_smart_spreads_misses_everywhere(self):
        system, threads = baseline(SmartSystem)
        for t in threads:
            assert miss_rate(system.trace, t.tid) > 0.5

    def test_reserves_denies_admission(self):
        system = ReservesSystem(machine=MachineConfig.ideal(), sim=SimConfig(seed=9))
        system.admit(single_entry_definition("t0", 10, 0.5))
        system.admit(single_entry_definition("t1", 10, 0.4))
        with pytest.raises(AdmissionError):
            system.admit(single_entry_definition("t2", 10, 0.5))

    def test_rialto_picks_victim_by_timing(self):
        system, threads = baseline(RialtoSystem)
        log = system.denials
        denial_rates = [
            log.denied.get(t.tid, 0)
            / max(1, log.granted.get(t.tid, 0) + log.denied.get(t.tid, 0))
            for t in threads
        ]
        # Someone eats all the denials; the earliest arrivals eat none.
        assert denial_rates[0] == 0.0
        assert max(denial_rates) > 0.9


class TestComparisonSummary:
    def test_rd_delivers_most_guaranteed_cpu_without_misses(self):
        """The quantitative headline: on the same overload the RD is the
        only scheduler with zero misses AND full machine utilization."""
        rd, rd_threads = rd_system()
        rd_granted = sum(rd.trace.busy_ticks(t.tid) for t in rd_threads)
        assert miss_rate(rd.trace) == 0.0
        # >= 90 % of the machine productively granted.
        assert rd_granted >= 0.9 * DURATION

        smart, smart_threads = baseline(SmartSystem)
        assert miss_rate(smart.trace) > 0.5
