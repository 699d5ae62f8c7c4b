"""Workload generators: validity and reproducibility."""

import random

import pytest

from repro import units
from repro.workloads import grant_follower, greedy_worker, single_entry_definition
from tests.random_workloads import random_resource_list, random_task_set


class TestRandomResourceList:
    def test_lists_are_valid(self):
        rng = random.Random(0)
        for _ in range(50):
            rl = random_resource_list(rng)
            rates = [e.rate for e in rl]
            assert rates == sorted(rates, reverse=True)
            assert len(set(rates)) == len(rates)

    def test_greedy_flag_selects_function(self):
        rng = random.Random(1)
        assert random_resource_list(rng, greedy=True).maximum.function is greedy_worker
        assert random_resource_list(rng, greedy=False).maximum.function is grant_follower

    def test_reproducible(self):
        a = random_resource_list(random.Random(7))
        b = random_resource_list(random.Random(7))
        assert [(e.period, e.cpu_ticks) for e in a] == [
            (e.period, e.cpu_ticks) for e in b
        ]


class TestRandomTaskSet:
    def test_minima_always_jointly_admissible(self):
        for seed in range(20):
            rng = random.Random(seed)
            definitions = random_task_set(rng, count=10, capacity=0.96)
            total = sum(d.resource_list.minimum.rate for d in definitions)
            assert total <= 0.96 + 1e-9

    def test_names_are_unique(self):
        rng = random.Random(3)
        definitions = random_task_set(rng, count=8)
        names = [d.name for d in definitions]
        assert len(set(names)) == len(names)

    def test_count_respected_when_capacity_allows(self):
        rng = random.Random(5)
        definitions = random_task_set(rng, count=3, capacity=0.96)
        assert len(definitions) == 3


class TestSingleEntry:
    def test_rate_and_period(self):
        definition = single_entry_definition("x", period_ms=10, rate=0.25)
        entry = definition.resource_list.maximum
        assert entry.period == units.ms_to_ticks(10)
        assert entry.rate == pytest.approx(0.25)

    def test_admittable_end_to_end(self, ideal_rd):
        thread = ideal_rd.admit(single_entry_definition("x", 10, 0.25))
        ideal_rd.run_for(units.ms_to_ticks(30))
        assert not ideal_rd.trace.misses()
