"""Injection + shrinking: the pipeline's self-test machinery.

Armed synthetic scheduler bugs must be caught by the sanitizer oracle,
and the shrinker must reduce a failing spec while preserving the exact
failure outcome."""

import pytest

from repro import units
from repro.errors import SimulationError
from repro.fuzz import generate, run_spec, shrink
from repro.fuzz.inject import INJECTIONS, injector
from repro.fuzz.spec import LevelSpec, ScenarioSpec, TaskSpec


class TestInjection:
    def test_unknown_injection_is_loud(self):
        with pytest.raises(SimulationError, match="unknown injection"):
            injector("schrodinger")

    def test_none_is_a_no_op(self):
        assert injector(None) is None

    def test_edf_invert_is_caught(self):
        caught = 0
        for seed in range(6):
            result = run_spec(generate(seed), inject="edf-invert")
            if result.outcome == "invariant:edf-order":
                caught += 1
        assert caught >= 4

    def test_terminate_admitted_is_caught(self):
        caught = 0
        for seed in range(6):
            result = run_spec(generate(seed), inject="terminate-admitted")
            if result.outcome.startswith("invariant:"):
                caught += 1
        assert caught >= 4

    def test_terminate_admitted_on_a_one_task_node(self):
        """The kill leaves a node with nothing to run; the decision that
        follows it — at the kill's own tick — is still audited."""
        period = units.ms_to_ticks(10)
        spec = ScenarioSpec(
            seed=1,
            horizon_ticks=6 * period,
            machine="ideal",
            tasks=(
                TaskSpec(
                    name="only",
                    behavior="follower",
                    levels=(LevelSpec(period, period * 3 // 10),),
                    arrival_ticks=0,
                ),
            ),
        )
        result = run_spec(spec, inject="terminate-admitted")
        assert result.outcome == "invariant:never-terminated"
        assert result.ticks == 2 * period  # inject._KILL_AT_MS
        assert result.decisions_checked == 6

    def test_terminate_admitted_is_recorded_once_per_killed_thread(self):
        """A recording run keeps going after the kill; the dead thread
        stays admitted for every later pick but is reported once."""
        result = run_spec(
            generate(0), inject="terminate-admitted", sanitize="record"
        )
        assert result.outcome == "invariant:never-terminated"
        killed = [v for v in result.violations if v.startswith("[never-terminated]")]
        assert len(killed) == 1
        assert "thread 1 is still admitted" in killed[0]
        assert result.ticks == generate(0).horizon_ticks

    def test_trace_double_count_passes_the_sanitizer_and_fails_the_audit(self):
        """One tick recorded twice: nothing the live checks look at
        moved, so only the offline trace audit can object."""
        spec = generate(0)
        clean = run_spec(spec)
        result = run_spec(spec, inject="trace-double-count")
        assert result.outcome == "invariant:trace-cpu-overlap"
        # The strict sanitizer ran to the horizon and saw nothing.
        assert result.ticks == spec.horizon_ticks
        assert result.decisions_checked == clean.decisions_checked
        rules = {v[1 : v.index("]")] for v in result.violations}
        assert rules <= {"cpu-overlap", "grant-overrun", "conservation"}
        shrunk = shrink(spec, result.outcome, inject="trace-double-count")
        assert len(shrunk.spec.tasks) <= len(spec.tasks)
        assert (
            run_spec(shrunk.spec, inject="trace-double-count").outcome
            == result.outcome
        )

    def test_trace_audit_runs_on_every_cluster_node(self):
        spec = generate(0, cluster=True)
        assert run_spec(spec).ok
        result = run_spec(spec, inject="trace-double-count")
        assert result.outcome == "invariant:trace-cpu-overlap"
        assert result.detail.startswith("node00: [cpu-overlap]")

    def test_registry_names_are_stable(self):
        # CI and the CLI --inject choices key off these names.
        assert set(INJECTIONS) == {
            "edf-invert", "terminate-admitted", "trace-double-count"
        }


class TestShrink:
    def failing_case(self):
        for seed in range(10):
            spec = generate(seed)
            result = run_spec(spec, inject="edf-invert")
            if result.outcome == "invariant:edf-order" and len(spec.tasks) >= 3:
                return spec, result.outcome
        pytest.fail("no seed in range produced a multi-task EDF failure")

    def test_shrunk_spec_preserves_the_outcome(self):
        spec, outcome = self.failing_case()
        shrunk = shrink(spec, outcome, inject="edf-invert")
        assert run_spec(shrunk.spec, inject="edf-invert").outcome == outcome

    def test_shrink_reduces_and_records_provenance(self):
        spec, outcome = self.failing_case()
        shrunk = shrink(spec, outcome, inject="edf-invert")
        assert len(shrunk.spec.tasks) <= len(spec.tasks)
        assert shrunk.spec.notes["shrunk_from_tasks"] == len(spec.tasks)
        assert shrunk.runs > 0

    def test_shrunk_spec_still_validates(self):
        spec, outcome = self.failing_case()
        shrunk = shrink(spec, outcome, inject="edf-invert")
        assert shrunk.spec.validate() is shrunk.spec

    def test_run_cap_is_respected(self):
        spec, outcome = self.failing_case()
        shrunk = shrink(spec, outcome, inject="edf-invert", max_runs=5)
        assert shrunk.runs <= 5
