"""Property tests: randomized lifecycle churn.

Random scripts of admissions, exits, quiescence transitions, and wakes
against the Resource Distributor — checked with the trace validator and
the paper's guarantees.  This is the closest thing to the production
life of the system: a dynamic task set with overload coming and going.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import AdmissionError, MachineConfig, SimConfig, units
from repro.core.distributor import ResourceDistributor
from repro.core.threads import ThreadState
from repro.metrics import validate_trace
from repro.tasks.base import TaskDefinition
from tests.random_workloads import random_resource_list


def ms(x):
    return units.ms_to_ticks(x)


@st.composite
def churn_scripts(draw):
    seed = draw(st.integers(min_value=0, max_value=9999))
    steps = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["admit", "exit", "quiesce", "wake"]),
                st.integers(min_value=5, max_value=30),  # gap in ms
            ),
            min_size=3,
            max_size=12,
        )
    )
    return seed, steps


def run_script(seed, steps):
    rng = random.Random(seed)
    rd = ResourceDistributor(machine=MachineConfig.ideal(), sim=SimConfig(seed=seed))
    live: list = []
    quiescent: list = []
    time_ms = 1.0
    for action, gap in steps:
        time_ms += gap

        def do(action=action):
            if action == "admit":
                rl = random_resource_list(rng, max_levels=4, max_rate=0.5)
                try:
                    thread = rd.admit(
                        TaskDefinition(name=f"t{rng.randrange(1 << 30)}", resource_list=rl)
                    )
                    live.append(thread)
                except AdmissionError:
                    pass
            elif action == "exit" and live:
                thread = live.pop(rng.randrange(len(live)))
                rd.exit_thread(thread.tid)
            elif action == "quiesce" and live:
                thread = live.pop(rng.randrange(len(live)))
                rd.enter_quiescent(thread.tid)
                quiescent.append(thread)
            elif action == "wake" and quiescent:
                thread = quiescent.pop(rng.randrange(len(quiescent)))
                rd.wake(thread.tid)
                live.append(thread)

        rd.at(ms(time_ms), do)
    # Settle long enough for every deferred change to land: an exiting
    # thread keeps its grant through its current period (up to 100 ms,
    # the longest generated period) during which the machine can be
    # transiently over-committed, and only after that boundary does
    # unallocated time exist to activate a pending first grant.
    rd.run_for(ms(time_ms + 400))
    return rd, live, quiescent


class TestChurn:
    @given(churn_scripts())
    @settings(
        max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_no_misses_through_arbitrary_churn(self, script):
        seed, steps = script
        rd, live, quiescent = run_script(seed, steps)
        assert rd.trace.misses() == [], [str(m) for m in rd.trace.misses()]

    @given(churn_scripts())
    @settings(
        max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_trace_invariants_hold(self, script):
        seed, steps = script
        rd, live, quiescent = run_script(seed, steps)
        report = validate_trace(rd.trace, end_time=rd.now)
        assert report.ok, report.summary()

    @given(churn_scripts())
    @settings(
        max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_final_states_are_consistent(self, script):
        seed, steps = script
        rd, live, quiescent = run_script(seed, steps)
        for thread in live:
            assert thread.state in (ThreadState.ACTIVE, ThreadState.BLOCKED)
            assert thread.grant is not None
        for thread in quiescent:
            assert thread.state is ThreadState.QUIESCENT
            assert rd.resource_manager.usage(thread.tid).quiescent
        # Admission ledger matches the surviving population.
        expected = {t.tid for t in live} | {t.tid for t in quiescent}
        assert set(rd.resource_manager.admitted_ids()) == expected

    @given(churn_scripts())
    @settings(
        max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_grant_sets_always_fit(self, script):
        seed, steps = script
        rd, live, quiescent = run_script(seed, steps)
        result = rd.resource_manager.last_result
        if result is not None:
            assert result.grant_set.total_rate <= 1.0 + 1e-9
