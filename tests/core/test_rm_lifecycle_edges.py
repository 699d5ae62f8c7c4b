"""Resource Manager lifecycle edge cases."""

import pytest

from repro import AdmissionError, units
from repro.core.threads import ThreadState
from repro.tasks.modem import Modem
from repro.workloads import single_entry_definition

from tests.conftest import admit_simple


def ms(x):
    return units.ms_to_ticks(x)


class TestQuiescentEdges:
    def test_exit_while_quiescent(self, ideal_rd):
        modem = Modem()
        thread = ideal_rd.admit(modem.definition(start_quiescent=True))
        ideal_rd.run_for(ms(20))
        ideal_rd.exit_thread(thread.tid)
        assert thread.state is ThreadState.EXITED
        # Its pre-committed minimum is released.
        admit_simple(ideal_rd, "big", period_ms=10, rate=0.95)

    def test_double_enter_quiescent_is_idempotent(self, ideal_rd):
        thread = admit_simple(ideal_rd, "t", period_ms=10, rate=0.3)
        ideal_rd.run_for(ms(15))
        ideal_rd.enter_quiescent(thread.tid)
        ideal_rd.enter_quiescent(thread.tid)
        ideal_rd.run_for(ms(20))
        assert thread.state is ThreadState.QUIESCENT

    def test_quiesce_then_exit_before_boundary(self, ideal_rd):
        thread = admit_simple(ideal_rd, "t", period_ms=10, rate=0.3)
        ideal_rd.run_for(ms(12))
        ideal_rd.enter_quiescent(thread.tid)
        ideal_rd.exit_thread(thread.tid)
        ideal_rd.run_for(ms(20))
        assert thread.state is ThreadState.EXITED
        assert thread.tid not in ideal_rd.resource_manager.admitted_ids()

    def test_change_resource_list_while_quiescent(self, ideal_rd):
        thread = admit_simple(ideal_rd, "t", period_ms=10, rate=0.3)
        ideal_rd.run_for(ms(15))
        ideal_rd.enter_quiescent(thread.tid)
        ideal_rd.run_for(ms(15))
        smaller = single_entry_definition("t", period_ms=10, rate=0.1)
        ideal_rd.resource_manager.change_resource_list(thread.tid, smaller)
        ideal_rd.wake(thread.tid)
        ideal_rd.run_for(ms(30))
        assert thread.grant.rate == pytest.approx(0.1)


class TestExitEdges:
    def test_double_exit_raises(self, ideal_rd):
        thread = admit_simple(ideal_rd, "t", period_ms=10, rate=0.3)
        ideal_rd.exit_thread(thread.tid)
        with pytest.raises(AdmissionError):
            ideal_rd.exit_thread(thread.tid)

    def test_exit_before_first_activation(self, ideal_rd):
        # Admit and exit without ever running: the thread never held a
        # period, so it exits immediately.
        thread = admit_simple(ideal_rd, "t", period_ms=10, rate=0.3)
        ideal_rd.exit_thread(thread.tid)
        assert thread.state is ThreadState.EXITED
        ideal_rd.run_for(ms(20))
        assert ideal_rd.trace.busy_ticks(thread.tid) == 0

    def test_wake_after_exit_raises(self, ideal_rd):
        thread = admit_simple(ideal_rd, "t", period_ms=10, rate=0.3)
        ideal_rd.exit_thread(thread.tid)
        with pytest.raises(AdmissionError):
            ideal_rd.wake(thread.tid)

    def test_readmission_under_same_name_keeps_policy_identity(self, ideal_rd):
        t1 = admit_simple(ideal_rd, "app", period_ms=10, rate=0.3)
        pid1 = t1.policy_id
        ideal_rd.exit_thread(t1.tid)
        ideal_rd.run_for(ms(20))
        t2 = admit_simple(ideal_rd, "app", period_ms=10, rate=0.3)
        assert t2.policy_id == pid1
        assert t2.tid != t1.tid


class TestRecordOrder:
    def test_records_stay_in_tid_order_through_churn(self, ideal_rd):
        """``_requests`` walks the request map unsorted:
        insertion order must stay tid order through every lifecycle op,
        and each entry is keyed by its own thread."""
        rm = ideal_rd.resource_manager

        def check():
            assert list(rm._grant_requests) == sorted(rm._grant_requests)
            assert [r.thread_id for r in rm._requests()] == list(rm._grant_requests)

        def admit(name):
            return admit_simple(ideal_rd, name, period_ms=10, rate=0.1)

        live = [admit(f"t{i}") for i in range(4)]
        check()
        for step in range(8):
            ideal_rd.run_for(ms(7))
            oldest, newest = live[0], live[-1]
            ideal_rd.exit_thread(oldest.tid)
            check()
            live = live[1:] + [admit(oldest.name)]
            check()
            ideal_rd.enter_quiescent(newest.tid)
            check()
            smaller = single_entry_definition(
                newest.name, period_ms=10, rate=0.05 + 0.01 * step
            )
            rm.change_resource_list(newest.tid, smaller)
            check()
            ideal_rd.wake(newest.tid)
            check()
        ideal_rd.run_for(ms(30))
        assert len(rm._grant_requests) == 4
