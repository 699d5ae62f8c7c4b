"""Every AdmissionError raise site: message content and no residue.

A denied request must leave the system exactly as it was — no partially
registered thread, no committed capacity, no entry in the grant set.
Each test pins the raise site's message so a refactor that merges or
rewords denials shows up here.
"""

import pytest

from repro import MachineConfig, SimConfig, errors
from repro.core.admission import AdmissionController
from repro.core.distributor import ResourceDistributor
from repro.workloads import single_entry_definition

from tests.conftest import admit_simple


@pytest.fixture
def ac() -> AdmissionController:
    return AdmissionController(capacity=0.9, bandwidth_capacity=0.8)


class TestControllerConstruction:
    @pytest.mark.parametrize("capacity", [0.0, -0.1, 1.5])
    def test_rejects_bad_cpu_capacity(self, capacity):
        with pytest.raises(errors.AdmissionError, match=r"capacity must be in \(0, 1\]"):
            AdmissionController(capacity=capacity)

    @pytest.mark.parametrize("bandwidth", [0.0, -0.5, 2.0])
    def test_rejects_bad_bandwidth_capacity(self, bandwidth):
        with pytest.raises(errors.AdmissionError, match="bandwidth capacity"):
            AdmissionController(capacity=0.9, bandwidth_capacity=bandwidth)


class TestAdmitDenials:
    def test_duplicate_admission(self, ac):
        ac.admit(1, 0.2)
        with pytest.raises(errors.AdmissionError, match="thread 1 is already admitted"):
            ac.admit(1, 0.1)
        assert ac.committed == pytest.approx(0.2)  # first admission intact

    @pytest.mark.parametrize("rate", [0.0, -0.2, 1.01])
    def test_invalid_minimum_rate(self, ac, rate):
        with pytest.raises(errors.AdmissionError, match=r"minimum rate must be in \(0, 1\]"):
            ac.admit(1, rate)
        assert 1 not in ac
        assert ac.committed == 0.0

    @pytest.mark.parametrize("bandwidth", [-0.1, 1.5])
    def test_invalid_minimum_bandwidth(self, ac, bandwidth):
        with pytest.raises(
            errors.AdmissionError, match=r"minimum bandwidth must be in \[0, 1\]"
        ):
            ac.admit(1, 0.2, bandwidth)
        assert 1 not in ac
        assert ac.committed_bandwidth == 0.0

    def test_cpu_over_capacity(self, ac):
        ac.admit(1, 0.6)
        with pytest.raises(errors.AdmissionError, match="over the capacities"):
            ac.admit(2, 0.5)
        assert 2 not in ac
        assert ac.committed == pytest.approx(0.6)
        assert len(ac) == 1

    def test_bandwidth_over_capacity(self, ac):
        ac.admit(1, 0.1, 0.7)
        with pytest.raises(errors.AdmissionError, match="over the capacities"):
            ac.admit(2, 0.1, 0.2)
        assert 2 not in ac
        assert ac.committed_bandwidth == pytest.approx(0.7)


class TestReleaseAndLookups:
    def test_release_unknown(self, ac):
        with pytest.raises(errors.AdmissionError, match="thread 7 is not admitted"):
            ac.release(7)

    def test_min_rate_unknown(self, ac):
        with pytest.raises(errors.AdmissionError, match="thread 7 is not admitted"):
            ac.min_rate(7)

    def test_min_bandwidth_unknown(self, ac):
        with pytest.raises(errors.AdmissionError, match="thread 7 is not admitted"):
            ac.min_bandwidth(7)


class TestChangeMinRate:
    def test_unknown_thread(self, ac):
        with pytest.raises(errors.AdmissionError, match="thread 7 is not admitted"):
            ac.change_min_rate(7, 0.3)

    def test_invalid_new_rate(self, ac):
        ac.admit(1, 0.2)
        with pytest.raises(errors.AdmissionError, match="minimum rate"):
            ac.change_min_rate(1, 0.0)
        assert ac.min_rate(1) == pytest.approx(0.2)

    def test_growth_that_no_longer_fits(self, ac):
        ac.admit(1, 0.2)
        ac.admit(2, 0.6)
        with pytest.raises(errors.AdmissionError, match="would no longer fit"):
            ac.change_min_rate(1, 0.5)
        assert ac.min_rate(1) == pytest.approx(0.2)  # commitment unchanged
        assert ac.committed == pytest.approx(0.8)


class TestResourceManagerDenials:
    """Denials through the full Resource Distributor leave no residue."""

    def test_denied_request_admittance_message_and_state(self):
        rd = ResourceDistributor(machine=MachineConfig.ideal(), sim=SimConfig(seed=9))
        admit_simple(rd, "big", period_ms=10, rate=0.9)
        threads_before = dict(rd.kernel.threads)
        committed_before = rd.resource_manager.admission.committed
        with pytest.raises(errors.AdmissionError, match="cannot admit 'late'") as exc:
            rd.admit(single_entry_definition("late", 10, 0.5))
        # Message names both sides of the failed comparison.
        assert "does not fit beside the committed" in str(exc.value)
        # No residue: no new thread, no new commitment, no grant entry.
        assert rd.kernel.threads == threads_before
        assert rd.resource_manager.admission.committed == pytest.approx(
            committed_before
        )
        grant_set = rd.resource_manager.last_result.grant_set
        admitted = set(rd.resource_manager.admitted_ids())
        assert grant_set.ids() <= admitted
        assert len(admitted) == 1

    def test_denied_admission_does_not_disturb_running_threads(self):
        rd = ResourceDistributor(machine=MachineConfig.ideal(), sim=SimConfig(seed=9))
        survivor = admit_simple(rd, "big", period_ms=10, rate=0.9)
        with pytest.raises(errors.AdmissionError):
            rd.admit(single_entry_definition("late", 10, 0.5))
        from repro import units

        rd.run_for(units.ms_to_ticks(50))
        outcomes = [d for d in rd.trace.deadlines if d.thread_id == survivor.tid]
        assert outcomes and not any(d.missed for d in outcomes)

    def test_lifecycle_calls_on_unknown_thread(self, ideal_rd):
        for call in (
            ideal_rd.exit_thread,
            ideal_rd.enter_quiescent,
            ideal_rd.wake,
            ideal_rd.resource_manager.usage,
        ):
            with pytest.raises(errors.AdmissionError, match="thread 999 is not admitted"):
                call(999)
        assert ideal_rd.resource_manager.admitted_ids() == ()
