"""Runtime invariant sanitizer: catches seeded violations, stays quiet
on correct runs."""

import pytest

from repro import MachineConfig, SanitizerViolation, SimConfig, units
from repro.core.distributor import ResourceDistributor
from repro.core.grant_control import GrantSetResult
from repro.core.grants import Grant, GrantSet
from repro.core.resource_list import ResourceListEntry
from repro.core.threads import ThreadState
from repro.workloads import grant_follower

from tests.conftest import admit_simple


def ms(x):
    return units.ms_to_ticks(x)


def over_capacity_result(tid: int) -> GrantSetResult:
    """A grant set claiming 99% of the CPU — legal against a capacity of
    1.0 (so GrantSet's own constructor accepts it) but violating the
    default machine's 96% schedulable capacity."""
    period = ms(10)
    entry = ResourceListEntry(period, round(period * 0.99), grant_follower)
    grant = Grant(thread_id=tid, entry=entry, entry_index=0)
    return GrantSetResult(
        grant_set=GrantSet({tid: grant}, capacity=1.0),
        policy=None,
        passes=0,
    )


class TestGrantConservation:
    def test_detects_seeded_over_capacity_grant_set(self):
        """Acceptance: sanitize=True catches a grant set that commits
        more than the schedulable capacity (capacity minus reserve)."""
        rd = ResourceDistributor(sim=SimConfig(seed=1), sanitize=True)
        rd.resource_manager.grant_control.compute = (
            lambda requests, maxima: over_capacity_result(1)
        )
        with pytest.raises(SanitizerViolation, match="grant-conservation"):
            admit_simple(rd, "victim", period_ms=10, rate=0.2)

    def test_violation_carries_a_trace_excerpt(self):
        rd = ResourceDistributor(sim=SimConfig(seed=1), sanitize=True)
        admit_simple(rd, "warmup", period_ms=10, rate=0.2)
        rd.run_for(ms(30))
        rd.resource_manager.grant_control.compute = (
            lambda requests, maxima: over_capacity_result(1)
        )
        with pytest.raises(SanitizerViolation) as exc:
            admit_simple(rd, "victim", period_ms=10, rate=0.2)
        assert "trace excerpt" in str(exc.value)

    def test_clean_grant_sets_pass(self, ideal_rd):
        ideal_rd.kernel.sanitizer = _sanitizer_for(ideal_rd)
        admit_simple(ideal_rd, "a", period_ms=10, rate=0.4)
        admit_simple(ideal_rd, "b", period_ms=20, rate=0.4)
        assert ideal_rd.kernel.sanitizer.ok
        assert ideal_rd.kernel.sanitizer.grant_sets_checked == 2


def _sanitizer_for(rd, strict=True):
    from repro.metrics.sanitizer import InvariantSanitizer

    return InvariantSanitizer(rd.kernel, rd.resource_manager, strict=strict)


class TestEdfOrdering:
    def test_detects_wrong_pick(self):
        """Sabotage the scheduler to run the later-deadline thread."""
        rd = ResourceDistributor(
            machine=MachineConfig.ideal(), sim=SimConfig(seed=1), sanitize=True
        )
        admit_simple(rd, "short", period_ms=10, rate=0.3)
        admit_simple(rd, "long", period_ms=40, rate=0.3)
        real_pick = rd.scheduler.pick

        def anti_edf_pick(now):
            real_pick(now)  # run activations as the real policy would
            remaining = rd.scheduler.time_remaining_queue(now)
            if len(remaining) > 1:
                return remaining[-1]
            return real_pick(now)

        rd.scheduler.pick = anti_edf_pick
        rd.kernel.policy = rd.scheduler
        with pytest.raises(SanitizerViolation, match="edf-order"):
            rd.run_for(ms(50))

    def test_correct_edf_run_is_silent(self):
        rd = ResourceDistributor(
            machine=MachineConfig.ideal(), sim=SimConfig(seed=2), sanitize=True
        )
        admit_simple(rd, "a", period_ms=10, rate=0.4)
        admit_simple(rd, "b", period_ms=25, rate=0.4, greedy=True)
        rd.run_for(ms(200))
        assert rd.sanitizer.ok
        assert rd.sanitizer.decisions_checked > 0


class TestNeverTerminated:
    def test_detects_admitted_thread_terminated(self):
        rd = ResourceDistributor(sim=SimConfig(seed=1), sanitize=True)
        thread = admit_simple(rd, "victim", period_ms=10, rate=0.3)
        rd.run_for(ms(20))
        # Kill the thread behind the Resource Manager's back.
        thread.state = ThreadState.EXITED
        with pytest.raises(SanitizerViolation, match="never-terminated"):
            rd.run_for(ms(20))

    def test_recording_reports_each_killed_thread_once(self):
        rd = ResourceDistributor(
            sim=SimConfig(seed=1), sanitize=True, sanitize_strict=False
        )
        first = admit_simple(rd, "first", period_ms=10, rate=0.3)
        second = admit_simple(rd, "second", period_ms=10, rate=0.3)
        rd.run_for(ms(20))
        first.state = ThreadState.EXITED
        rd.run_for(ms(20))
        second.state = ThreadState.EXITED
        rd.run_for(ms(20))
        killed = [
            v.detail.split()[1]
            for v in rd.sanitizer.report.violations
            if v.rule == "never-terminated"
        ]
        assert killed == [str(first.tid), str(second.tid)]

    def test_clean_exit_through_rm_is_fine(self):
        rd = ResourceDistributor(sim=SimConfig(seed=1), sanitize=True)
        thread = admit_simple(rd, "leaver", period_ms=10, rate=0.3)
        rd.run_for(ms(20))
        rd.exit_thread(thread.tid)
        rd.run_for(ms(30))
        assert rd.sanitizer.ok


class TestGrantDelivery:
    def test_detects_missed_period(self):
        rd = ResourceDistributor(sim=SimConfig(seed=1), sanitize=True)
        thread = admit_simple(rd, "t", period_ms=10, rate=0.3)
        with pytest.raises(SanitizerViolation, match="grant-delivery"):
            rd.sanitizer.on_period_close(thread, ms(3), ms(1), True)

    def test_detects_over_delivery(self):
        rd = ResourceDistributor(sim=SimConfig(seed=1), sanitize=True)
        thread = admit_simple(rd, "t", period_ms=10, rate=0.3)
        with pytest.raises(SanitizerViolation, match="grant-delivery"):
            rd.sanitizer.on_period_close(thread, ms(3), ms(4), False)

    def test_every_period_checked_on_a_real_run(self):
        rd = ResourceDistributor(sim=SimConfig(seed=3), sanitize=True)
        admit_simple(rd, "a", period_ms=10, rate=0.4)
        rd.run_for(ms(100))
        assert rd.sanitizer.periods_checked == len(rd.trace.deadlines)
        assert rd.sanitizer.ok


class TestNonStrictMode:
    def test_collects_instead_of_raising(self):
        rd = ResourceDistributor(
            sim=SimConfig(seed=1), sanitize=True, sanitize_strict=False
        )
        rd.resource_manager.grant_control.compute = (
            lambda requests, maxima: over_capacity_result(1)
        )
        admit_simple(rd, "victim", period_ms=10, rate=0.2)  # does not raise
        assert not rd.sanitizer.ok
        assert any(
            v.rule == "grant-conservation" for v in rd.sanitizer.report.violations
        )
        assert "grant-conservation" in rd.sanitizer.summary()

    def test_summary_counts_checks(self):
        rd = ResourceDistributor(
            sim=SimConfig(seed=4), sanitize=True, sanitize_strict=False
        )
        admit_simple(rd, "a", period_ms=10, rate=0.5)
        rd.run_for(ms(50))
        head = rd.sanitizer.summary().splitlines()[0]
        assert "OK" in head
        assert "decisions" in head


class TestWiring:
    def test_sanitize_false_installs_nothing(self, ideal_rd):
        assert ideal_rd.sanitizer is None
        assert ideal_rd.kernel.sanitizer is None

    def test_trickier_scenarios_stay_clean(self):
        """Quiescent wake + greedy noise: no false positives."""
        rd = ResourceDistributor(sim=SimConfig(seed=5), sanitize=True)
        sleeper = admit_simple(rd, "sleeper", period_ms=10, rate=0.3)
        admit_simple(rd, "noise", period_ms=7, rate=0.4, greedy=True)
        rd.run_for(ms(30))
        rd.enter_quiescent(sleeper.tid)
        rd.run_for(ms(30))
        rd.wake(sleeper.tid)
        rd.run_for(ms(30))
        assert rd.sanitizer.ok
