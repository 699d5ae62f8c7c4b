"""Generator properties: determinism, validity, and the tick-units
contract (the ISSUE's hypothesis satellite lives here)."""

from hypothesis import given, settings
from hypothesis import strategies as st

import json

from repro.fuzz import generate, scenario_seed
from repro.fuzz.generator import CAPACITY, PRESSURE_HIGH
from repro.fuzz.spec import TraceFile


def canonical(spec):
    """The bytes a trace file holds for ``spec`` (``write_trace`` sorts keys)."""
    return json.dumps(TraceFile(spec).to_dict(), sort_keys=True)


SEEDS = st.integers(min_value=0, max_value=2**64 - 1)


class TestDeterminism:
    @given(seed=SEEDS, cluster=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_same_seed_same_bytes(self, seed, cluster):
        first = canonical(generate(seed, cluster=cluster))
        second = canonical(generate(seed, cluster=cluster))
        assert first == second

    @given(seed=SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_round_trips_losslessly_through_the_trace_format(self, seed):
        spec = generate(seed)
        text = canonical(spec)
        again = TraceFile.from_dict(json.loads(text)).spec
        assert again == spec
        assert canonical(again) == text

    def test_core_and_cluster_streams_are_independent(self):
        assert canonical(generate(5)) != canonical(generate(5, cluster=True))

    def test_scenario_seeds_are_distinct_per_index_and_mode(self):
        seeds = {scenario_seed(9, i) for i in range(100)}
        seeds |= {scenario_seed(9, i, cluster=True) for i in range(100)}
        assert len(seeds) == 200


class TestValidity:
    @given(seed=SEEDS, cluster=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_every_generated_spec_validates(self, seed, cluster):
        spec = generate(seed, cluster=cluster)
        assert spec.validate() is spec

    @given(seed=SEEDS)
    @settings(max_examples=60, deadline=None)
    def test_all_times_are_integer_ticks(self, seed):
        spec = generate(seed)
        assert isinstance(spec.horizon_ticks, int)
        for task in spec.tasks:
            assert isinstance(task.arrival_ticks, int)
            for level in task.levels:
                assert isinstance(level.period_ticks, int)
                assert isinstance(level.cpu_ticks, int)
            if task.sporadic is not None:
                # The satellite fix: jitter is whole ticks, never
                # fractional milliseconds.
                assert isinstance(task.sporadic.jitter_ticks, int)
                assert isinstance(task.sporadic.interarrival_ticks, int)

    @given(seed=SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_levels_strictly_decrease(self, seed):
        for task in generate(seed).tasks:
            cpus = [level.cpu_ticks for level in task.levels]
            assert cpus == sorted(cpus, reverse=True)
            assert len(set(cpus)) == len(cpus)

    @given(seed=SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_pressure_stays_in_band(self, seed):
        # The generator aims around the admission boundary; the realized
        # demand can overshoot the target because task rates are drawn
        # in coarse chunks, but it must stay in the same neighborhood.
        spec = generate(seed)
        assert 0.0 < spec.min_rate_sum < 2.5 * PRESSURE_HIGH * CAPACITY

    @given(seed=SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_cluster_specs_script_only_periodic_followers(self, seed):
        spec = generate(seed, cluster=True)
        assert spec.cluster is not None and not spec.server
        for task in spec.tasks:
            assert task.sporadic is None
            assert not task.quiescent_spans and not task.start_quiescent
            assert task.behavior in ("follower", "greedy")
