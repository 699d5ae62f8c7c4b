"""Resource Manager accounting: grant usage reported per thread."""

import pytest

from repro import AdmissionError, units

from tests.conftest import admit_simple


def ms(x):
    return units.ms_to_ticks(x)


class TestUsage:
    def test_full_user_consumes_its_grants(self, ideal_rd):
        thread = admit_simple(ideal_rd, "worker", period_ms=10, rate=0.4)
        ideal_rd.run_for(ms(100))
        usage = ideal_rd.resource_manager.usage(thread.tid)
        assert usage.periods == 10
        assert usage.granted_ticks == 10 * ms(4)
        assert usage.used_ticks == usage.granted_ticks
        assert usage.used_ticks / usage.granted_ticks == pytest.approx(1.0)
        assert usage.overtime_ticks == 0

    def test_greedy_user_shows_overtime(self, ideal_rd):
        thread = admit_simple(ideal_rd, "greedy", period_ms=10, rate=0.4, greedy=True)
        ideal_rd.run_for(ms(100))
        usage = ideal_rd.resource_manager.usage(thread.tid)
        assert usage.overtime_ticks > 0

    def test_light_user_shows_partial_utilization(self, ideal_rd):
        from repro import TaskDefinition
        from repro.core.resource_list import ResourceList, ResourceListEntry
        from repro.tasks.base import Compute, DonePeriod

        def light(ctx):
            yield Compute(ms(1))
            yield DonePeriod()

        thread = ideal_rd.admit(
            TaskDefinition(
                name="light",
                resource_list=ResourceList(
                    [ResourceListEntry(ms(10), ms(4), light, "light")]
                ),
            )
        )
        ideal_rd.run_for(ms(100))
        usage = ideal_rd.resource_manager.usage(thread.tid)
        assert usage.used_ticks / usage.granted_ticks == pytest.approx(0.25)

    def test_summary_covers_population(self, ideal_rd):
        admit_simple(ideal_rd, "a", period_ms=10, rate=0.3)
        admit_simple(ideal_rd, "b", period_ms=20, rate=0.3)
        ideal_rd.run_for(ms(60))
        rm = ideal_rd.resource_manager
        summary = [rm.usage(tid) for tid in rm.admitted_ids()]
        assert [u.name for u in summary] == ["a", "b"]
        assert all(u.periods > 0 for u in summary)

    def test_quiescent_thread_reports_zero_usage(self, ideal_rd):
        from repro.tasks.modem import Modem

        thread = ideal_rd.admit(Modem().definition(start_quiescent=True))
        ideal_rd.run_for(ms(50))
        usage = ideal_rd.resource_manager.usage(thread.tid)
        assert usage.quiescent
        assert usage.used_ticks == 0
        assert usage.granted_ticks == 0

    def test_unknown_thread_raises(self, ideal_rd):
        with pytest.raises(AdmissionError):
            ideal_rd.resource_manager.usage(404)
