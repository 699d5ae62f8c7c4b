"""What-if admission previews against a live distributor."""

import pytest

from repro import units
from repro.analysis import admission_preview
from repro.tasks.busyloop import busyloop_definition
from repro.workloads import single_entry_definition

from tests.conftest import admit_simple


def ms(x):
    return units.ms_to_ticks(x)


class TestAdmissible:
    def test_underload_preview_predicts_max_grant(self, ideal_rd):
        admit_simple(ideal_rd, "existing", period_ms=10, rate=0.3)
        preview = admission_preview(
            ideal_rd, single_entry_definition("newcomer", 10, 0.3)
        )
        assert preview.admissible
        assert preview.newcomer_index == 0
        assert preview.newcomer_rate == pytest.approx(0.3)
        assert not any(c.degraded for c in preview.changes)

    def test_overload_preview_predicts_degradations(self, ideal_rd):
        ideal_rd.admit(busyloop_definition("existing"))
        ideal_rd.run_for(ms(20))  # let the first grant activate
        preview = admission_preview(ideal_rd, busyloop_definition("newcomer"))
        assert preview.admissible
        assert any(c.degraded for c in preview.changes)
        existing = preview.changes[0]
        assert existing.current_rate == pytest.approx(0.9)
        assert existing.predicted_rate < 0.9

    def test_preview_is_side_effect_free(self, ideal_rd):
        existing = ideal_rd.admit(busyloop_definition("existing"))
        ideal_rd.run_for(ms(20))
        before = existing.grant.rate
        admission_preview(ideal_rd, busyloop_definition("newcomer"))
        ideal_rd.run_for(ms(20))
        assert existing.grant.rate == before
        assert len(list(ideal_rd.resource_manager.admitted_ids())) == 1

    def test_preview_leaves_the_policy_box_and_the_session_alone(self):
        """An admissible newcomer that overloads an observed two-task
        distributor: the preview correlates on a copy of the box."""
        from repro import MachineConfig, ResourceDistributor, SimConfig
        from repro.obs import ObsSession

        session = ObsSession()
        rd = ResourceDistributor(
            machine=MachineConfig.ideal(), sim=SimConfig(seed=1), obs=session
        )
        rd.admit(busyloop_definition("a"))
        rd.admit(busyloop_definition("b"))
        rd.run_for(ms(20))
        box = rd.policy_box
        before = (box.describe(), box.lookup_count, box.invention_count, len(session.events))
        preview = admission_preview(rd, busyloop_definition("newcomer"))
        assert preview.admissible and any(c.degraded for c in preview.changes)
        after = (box.describe(), box.lookup_count, box.invention_count, len(session.events))
        assert after == before

    def test_preview_matches_reality(self, ideal_rd):
        """What the preview predicts is what admission then does."""
        ideal_rd.admit(busyloop_definition("existing"))
        ideal_rd.run_for(ms(20))
        newcomer_def = busyloop_definition("newcomer")
        preview = admission_preview(ideal_rd, newcomer_def)
        newcomer = ideal_rd.admit(newcomer_def)
        ideal_rd.run_for(ms(30))
        assert newcomer.grant.entry_index == preview.newcomer_index


class TestInadmissible:
    def test_cpu_denial_predicted(self, ideal_rd):
        admit_simple(ideal_rd, "hog", period_ms=10, rate=0.9)
        preview = admission_preview(
            ideal_rd, single_entry_definition("too-big", 10, 0.2)
        )
        assert not preview.admissible
        assert "does not fit" in preview.reason

    def test_exclusive_minimum_rejected(self, ideal_rd):
        from repro import TaskDefinition
        from repro.core.resource_list import ResourceList, ResourceListEntry
        from repro.workloads import grant_follower

        bad = TaskDefinition(
            name="bad",
            resource_list=ResourceList(
                [
                    ResourceListEntry(
                        ms(10), ms(1), grant_follower,
                        exclusive=frozenset({"data_streamer"}),
                    )
                ]
            ),
        )
        preview = admission_preview(ideal_rd, bad)
        assert not preview.admissible
