"""Runner tests: specs materialize and run clean, denials classify as
expected outcomes, and sporadic schedules are pure functions of the spec."""

import pytest

from repro import MachineConfig, units
from repro.core.distributor import ResourceDistributor
from repro.errors import SimulationError
from repro.fuzz import LevelSpec, ScenarioSpec, TaskSpec, generate, run_spec
from repro.fuzz.runner import _classify, sporadic_arrivals
from repro.fuzz.spec import SporadicSpec


def follower(name, period_ms, cpu_ms, **kw) -> TaskSpec:
    return TaskSpec(
        name=name,
        behavior=kw.pop("behavior", "follower"),
        levels=(LevelSpec(units.ms_to_ticks(period_ms), units.ms_to_ticks(cpu_ms)),),
        arrival_ticks=kw.pop("arrival_ticks", 0),
        **kw,
    )


class TestCoreRuns:
    def test_small_admissible_mix_is_clean(self):
        spec = ScenarioSpec(
            seed=1,
            horizon_ticks=units.ms_to_ticks(100),
            machine="ideal",
            tasks=(follower("a", 10, 2), follower("b", 20, 5)),
        )
        result = run_spec(spec)
        assert result.ok and result.outcome == "ok"
        assert set(result.admitted) == {"a", "b"}
        assert result.decisions_checked > 0

    def test_over_scheduling_is_a_denial_not_a_failure(self):
        spec = ScenarioSpec(
            seed=1,
            horizon_ticks=units.ms_to_ticks(60),
            machine="ideal",
            tasks=(
                follower("big1", 10, 6),
                follower("big2", 10, 6, arrival_ticks=units.ms_to_ticks(5)),
            ),
        )
        result = run_spec(spec)
        assert result.ok
        assert result.admitted == ("big1",)
        assert result.denied == ("big2",)

    def test_every_behavior_runs_clean(self):
        tasks = (
            follower("f", 20, 3),
            follower("g", 20, 3, behavior="greedy"),
            follower("j", 20, 3, behavior="jittery"),
            follower(
                "d", 20, 3, behavior="drifting",
                drift_ticks_per_period=units.us_to_ticks(100),
            ),
        )
        spec = ScenarioSpec(
            seed=3,
            horizon_ticks=units.ms_to_ticks(120),
            machine="calibrated",
            tasks=tasks,
        )
        result = run_spec(spec)
        assert result.ok, result.detail
        assert len(result.admitted) == 4

    def test_departure_and_quiescence_script(self):
        spec = ScenarioSpec(
            seed=4,
            horizon_ticks=units.ms_to_ticks(150),
            machine="ideal",
            tasks=(
                follower("stays", 10, 2),
                follower(
                    "churns", 10, 2,
                    departure_ticks=units.ms_to_ticks(80),
                ),
                follower(
                    "sleeper", 10, 2,
                    quiescent_spans=(
                        (units.ms_to_ticks(40), units.ms_to_ticks(90)),
                    ),
                ),
            ),
        )
        result = run_spec(spec)
        assert result.ok, result.detail

    def test_invalid_spec_is_rejected_before_running(self):
        spec = ScenarioSpec(
            seed=0, horizon_ticks=0, machine="ideal", tasks=()
        )
        with pytest.raises(SimulationError):
            run_spec(spec)


class TestSporadicArrivals:
    def source(self, jitter_us=500):
        return TaskSpec(
            name="sp",
            behavior="follower",
            levels=(),
            arrival_ticks=0,
            sporadic=SporadicSpec(
                interarrival_ticks=units.ms_to_ticks(10),
                jitter_ticks=units.us_to_ticks(jitter_us),
                burst_ticks=units.us_to_ticks(200),
            ),
        )

    def spec_with(self, source, seed=5):
        return ScenarioSpec(
            seed=seed,
            horizon_ticks=units.ms_to_ticks(100),
            machine="ideal",
            tasks=(follower("base", 20, 2), source),
            server=True,
        )

    def test_pure_function_of_the_spec(self):
        source = self.source()
        first = sporadic_arrivals(self.spec_with(source), source)
        second = sporadic_arrivals(self.spec_with(source), source)
        assert first == second
        assert all(isinstance(t, int) for t in first)

    def test_jitter_respects_bounds_and_monotonicity(self):
        source = self.source()
        arrivals = sporadic_arrivals(self.spec_with(source), source)
        gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
        lo = units.ms_to_ticks(10) - units.us_to_ticks(500)
        hi = units.ms_to_ticks(10) + units.us_to_ticks(500)
        assert all(lo <= gap <= hi for gap in gaps)

    def test_sporadic_scenario_runs_clean(self):
        source = self.source()
        result = run_spec(self.spec_with(source))
        assert result.ok, result.detail


class TestClusterRuns:
    def test_generated_cluster_spec_is_clean(self):
        spec = generate(0, cluster=True)
        result = run_spec(spec)
        assert result.ok, result.detail
        assert result.decisions_checked > 0

    def test_cluster_placements_report_as_admitted(self):
        spec = generate(0, cluster=True)
        result = run_spec(spec)
        assert set(result.admitted) <= {t.name for t in spec.tasks}


def _recording_node():
    return ResourceDistributor(
        machine=MachineConfig.ideal(), sanitize=True, sanitize_strict=False
    )


class TestClassifier:
    """One classifier names every run by its first violation."""

    def test_earliest_violation_across_nodes_names_the_run(self):
        """The later node in name order violated first: it names the
        run, though both violations are reported, in node order."""
        nodes = {"node00": _recording_node(), "node01": _recording_node()}

        def body():
            nodes["node00"].sanitizer._fail("grant-delivery", 500, "late")
            nodes["node01"].sanitizer._fail("edf-order", 100, "early")
            nodes["node01"].sanitizer._fail("never-terminated", 50, "after")

        result = _classify(nodes, body)
        assert result.outcome == "invariant:edf-order"
        assert result.detail == "node01: [edf-order] t=100: early"
        assert [v.split(":")[0] for v in result.violations] == [
            "node00", "node01", "node01"
        ]

    def test_a_time_tie_goes_to_the_first_node_name(self):
        nodes = {"node00": _recording_node(), "node01": _recording_node()}

        def body():
            nodes["node01"].sanitizer._fail("edf-order", 100, "b")
            nodes["node00"].sanitizer._fail("grant-delivery", 100, "a")

        assert _classify(nodes, body).outcome == "invariant:grant-delivery"

    def test_a_core_run_is_the_unnamed_node(self):
        rd = _recording_node()
        result = _classify({"": rd}, lambda: rd.sanitizer._fail("edf-order", 7, "x"))
        assert result.outcome == "invariant:edf-order"
        assert result.violations == ("[edf-order] t=7: x",)
