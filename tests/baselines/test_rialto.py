"""Rialto baseline: constraint denial by accident of timing."""

import pytest

from repro import MachineConfig, SimConfig, units
from repro.baselines import RialtoSystem
from repro.workloads import single_entry_definition


def ms(x):
    return units.ms_to_ticks(x)


def denial_rate(log, tid):
    granted = log.granted.get(tid, 0)
    denied = log.denied.get(tid, 0)
    return denied / (granted + denied) if granted + denied else 0.0


def make_system(seed=7):
    return RialtoSystem(machine=MachineConfig.ideal(), sim=SimConfig(seed=seed))


class TestUnderload:
    def test_all_constraints_granted(self):
        system = make_system()
        threads = [
            system.admit(single_entry_definition(f"t{i}", 10, 0.3)) for i in range(3)
        ]
        system.run_for(ms(100))
        for t in threads:
            assert system.denials.denied.get(t.tid, 0) == 0
        assert not system.trace.misses()


class TestAccidentOfTiming:
    def test_denial_follows_request_order_not_importance(self):
        system = make_system()
        # "video" asks first each period purely because it was admitted
        # first; "audio" — which the user cares about more — is denied.
        video = system.admit(single_entry_definition("video", 10, 0.6))
        audio = system.admit(single_entry_definition("audio", 10, 0.6))
        system.run_for(ms(200))
        assert denial_rate(system.denials, video.tid) == 0.0
        assert denial_rate(system.denials, audio.tid) > 0.9

    def test_reversing_admission_order_flips_the_victim(self):
        system = make_system()
        audio = system.admit(single_entry_definition("audio", 10, 0.6))
        video = system.admit(single_entry_definition("video", 10, 0.6))
        system.run_for(ms(200))
        assert denial_rate(system.denials, audio.tid) == 0.0
        assert denial_rate(system.denials, video.tid) > 0.9

    def test_denied_periods_do_no_work(self):
        system = make_system()
        system.admit(single_entry_definition("a", 10, 0.6))
        b = system.admit(single_entry_definition("b", 10, 0.6))
        system.run_for(ms(100))
        # b's denied periods consumed no granted CPU.
        assert system.trace.busy_ticks(b.tid) < ms(10)

    def test_granted_constraints_are_honoured(self):
        system = make_system()
        a = system.admit(single_entry_definition("a", 10, 0.6))
        system.admit(single_entry_definition("b", 10, 0.6))
        system.run_for(ms(100))
        assert not system.trace.misses(a.tid)


class TestDenialLog:
    def test_log_counts(self):
        system = make_system()
        a = system.admit(single_entry_definition("a", 10, 0.6))
        b = system.admit(single_entry_definition("b", 10, 0.6))
        system.run_for(ms(50))
        log = system.denials
        assert log.granted.get(a.tid, 0) >= 4
        assert log.denied.get(b.tid, 0) >= 4

    def test_denial_rate_empty_is_zero(self):
        system = make_system()
        assert denial_rate(system.denials, 42) == 0.0
