"""Property tests: the end-to-end scheduling guarantee.

For ANY admissible task population on a frictionless machine, every
admitted task receives its full grant in every period — the paper's
headline guarantee — and conservation holds (nobody is charged more
CPU than wall-clock time exists).
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import MachineConfig, SimConfig, units
from repro.core.distributor import ResourceDistributor
from repro.sim.trace import SegmentKind
from tests.random_workloads import random_task_set


@st.composite
def task_sets(draw):
    seed = draw(st.integers(min_value=0, max_value=5_000))
    count = draw(st.integers(min_value=1, max_value=6))
    greedy = draw(st.booleans())
    return seed, count, greedy


def run_set(seed, count, greedy, duration_ms=120):
    rng = random.Random(seed)
    rd = ResourceDistributor(machine=MachineConfig.ideal(), sim=SimConfig(seed=seed))
    definitions = random_task_set(rng, count, capacity=1.0, greedy=greedy)
    threads = [rd.admit(d) for d in definitions]
    rd.run_for(units.ms_to_ticks(duration_ms))
    return rd, threads


class TestGuarantee:
    @given(task_sets())
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_no_admitted_task_ever_misses(self, params):
        seed, count, greedy = params
        rd, threads = run_set(seed, count, greedy)
        assert rd.trace.misses() == []

    @given(task_sets())
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_every_closed_period_fully_delivered(self, params):
        seed, count, greedy = params
        rd, threads = run_set(seed, count, greedy)
        for outcome in rd.trace.deadlines:
            if not outcome.voided:
                assert outcome.delivered == outcome.granted

    @given(task_sets())
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_cpu_conservation(self, params):
        """Run segments never overlap and cover exactly the elapsed time."""
        seed, count, greedy = params
        rd, threads = run_set(seed, count, greedy)
        segments = sorted(rd.trace.segments, key=lambda s: s.start)
        for a, b in zip(segments, segments[1:]):
            assert a.end <= b.start, "two threads held the CPU at once"
        covered = sum(s.length for s in segments)
        assert covered == rd.now

    @given(task_sets())
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_granted_time_never_exceeds_grant(self, params):
        seed, count, greedy = params
        rd, threads = run_set(seed, count, greedy)
        for thread in threads:
            for outcome in rd.trace.deadlines_for(thread.tid):
                assert outcome.delivered <= outcome.granted


class TestDeterminism:
    @given(st.integers(min_value=0, max_value=2_000))
    @settings(max_examples=10, deadline=None)
    def test_same_seed_same_trace(self, seed):
        a, _ = run_set(seed, 4, False, duration_ms=60)
        b, _ = run_set(seed, 4, False, duration_ms=60)
        assert len(a.trace.segments) == len(b.trace.segments)
        for sa, sb in zip(a.trace.segments, b.trace.segments):
            assert (sa.thread_id, sa.start, sa.end, sa.kind) == (
                sb.thread_id,
                sb.start,
                sb.end,
                sb.kind,
            )
