"""Quiescent tasks (section 5.3): admitted but consuming nothing."""

import pytest

from repro import AdmissionError, units
from repro.core.threads import ThreadState
from repro.tasks.busyloop import busyloop_definition
from repro.tasks.cooldown import CooldownTask
from repro.tasks.modem import Modem

from tests.conftest import admit_simple


def ms(x):
    return units.ms_to_ticks(x)


class TestAdmissionAccounting:
    def test_quiescent_minimum_counts_for_admission(self, ideal_rd):
        modem = Modem()
        ideal_rd.admit(modem.definition(start_quiescent=True))  # min 10 %
        # 91 % would fit alone but not beside the quiescent 10 %.
        with pytest.raises(AdmissionError):
            admit_simple(ideal_rd, "hog", period_ms=10, rate=0.91)

    def test_quiescent_thread_gets_no_grant(self, ideal_rd):
        modem = Modem()
        t = ideal_rd.admit(modem.definition(start_quiescent=True))
        ideal_rd.run_for(ms(20))
        assert t.state is ThreadState.QUIESCENT
        assert t.grant is None
        assert ideal_rd.trace.busy_ticks(t.tid) == 0

    def test_other_threads_use_quiescent_capacity(self, ideal_rd):
        modem = Modem()
        ideal_rd.admit(modem.definition(start_quiescent=True))
        greedy = ideal_rd.admit(busyloop_definition("dvd"))
        ideal_rd.run_for(ms(30))
        # While the modem sleeps, the DVD gets its maximum (90 %).
        assert greedy.grant.rate == pytest.approx(0.9)


class TestWake:
    def test_wake_is_guaranteed_to_succeed(self):
        # Zero switch costs for determinism, but the paper's 4 % reserve
        # so the 90 % DVD + 10 % modem no longer fit together.
        from repro import ContextSwitchCosts, MachineConfig, SimConfig
        from repro.core.distributor import ResourceDistributor

        rd = ResourceDistributor(
            machine=MachineConfig(switch_costs=ContextSwitchCosts.zero()),
            sim=SimConfig(seed=3),
        )
        modem = Modem()
        quiet = rd.admit(modem.definition(start_quiescent=True))
        dvd = rd.admit(busyloop_definition("dvd"))
        rd.run_for(ms(30))
        rd.wake(quiet.tid)
        rd.run_for(ms(40))
        assert quiet.state is ThreadState.ACTIVE
        assert quiet.grant is not None
        # The DVD shed load to make room; nobody missed a deadline.
        assert dvd.grant.rate < 0.9
        assert not rd.trace.misses()

    def test_wake_mid_run_answers_promptly(self, ideal_rd):
        modem = Modem()
        quiet = ideal_rd.admit(modem.definition(start_quiescent=True))
        ideal_rd.admit(busyloop_definition("dvd"))
        ideal_rd.at(ms(50), lambda: ideal_rd.wake(quiet.tid))
        ideal_rd.run_for(ms(100))
        first_run = min(
            (s.start for s in ideal_rd.trace.segments_for(quiet.tid)), default=None
        )
        assert first_run is not None
        # Prompt: within a couple of modem periods of the phone ringing.
        assert first_run - ms(50) <= 2 * 270_000

    def test_wake_idempotent(self, ideal_rd):
        modem = Modem()
        t = ideal_rd.admit(modem.definition(start_quiescent=False))
        ideal_rd.wake(t.tid)  # already awake: no-op
        ideal_rd.run_for(ms(10))
        assert t.state is ThreadState.ACTIVE


class TestEnterQuiescent:
    def test_running_thread_can_go_quiescent(self, ideal_rd):
        modem = Modem()
        t = ideal_rd.admit(modem.definition(start_quiescent=False))
        ideal_rd.run_for(ms(15))
        ideal_rd.enter_quiescent(t.tid)
        ideal_rd.run_for(ms(15))
        assert t.state is ThreadState.QUIESCENT
        assert t.grant is None
        assert ideal_rd.resource_manager.usage(t.tid).quiescent

    def test_quiescence_toggle_round_trip(self, ideal_rd):
        modem = Modem()
        t = ideal_rd.admit(modem.definition(start_quiescent=False))
        ideal_rd.run_for(ms(15))
        ideal_rd.enter_quiescent(t.tid)
        ideal_rd.run_for(ms(15))
        ideal_rd.wake(t.tid)
        ideal_rd.run_for(ms(15))
        assert t.state is ThreadState.ACTIVE
        assert not ideal_rd.trace.misses()


class TestCooldownScenario:
    def test_overheat_runs_cooldown_without_terminating_anyone(self, ideal_rd):
        cooldown = CooldownTask()
        cool = ideal_rd.admit(cooldown.definition())
        dvd = ideal_rd.admit(busyloop_definition("dvd"))
        ideal_rd.at(ms(40), lambda: ideal_rd.wake(cool.tid), "overheat!")
        ideal_rd.run_for(ms(100))
        assert cooldown.stats.noop_ticks > 0
        assert dvd.state is ThreadState.ACTIVE
        assert not ideal_rd.trace.misses()
