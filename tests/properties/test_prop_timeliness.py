"""Property test: every booked event fires at its due tick.

A slice stops at the first of its timer, the next event and the horizon
(DESIGN.md §4 "The hold rule"), and a controlled-preemption grace slice
(§5.6) is a slice like any other.  So on the ideal machine, where no
switch cost or stolen interrupt time moves the clock, an event fires on
the tick it was booked for — whoever booked it and whenever: before the
run, from a task body, or from inside a grace slice — and wherever a
caller cuts the run into ``run_until`` calls.

The populations mix tasks registered for controlled preemption, with a
check interval inside the 200 us grace period (honoured) and past it
(missed), with tasks that are not, so boundaries preempt running grace
candidates.  Once, an event booked before a grace slice and due inside
it fired when the slice ended (EXPERIMENTS.md, then deviation 7).
"""

from __future__ import annotations

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import AdmissionError, MachineConfig, SimConfig, units
from repro.core.distributor import ResourceDistributor
from repro.core.resource_list import ResourceList, ResourceListEntry
from repro.tasks.base import Compute, PreemptionConfig, TaskDefinition

us = units.us_to_ticks
ms = units.ms_to_ticks

HORIZON = ms(60)

#: One task: period (ms), rate (%), check interval (us; None is not
#: registered), compute step (us), and how it books: every how many
#: steps (0: never) and how far ahead (us).
tasks = st.tuples(
    st.sampled_from([5, 10, 15, 30]),
    st.integers(min_value=5, max_value=40),
    st.sampled_from([None, 100, 150, 500]),
    st.sampled_from([20, 50, 120]),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=0, max_value=400),
)
external = st.lists(st.integers(min_value=1, max_value=HORIZON - 1), max_size=8)
cut_times = st.lists(
    st.one_of(
        st.integers(min_value=1, max_value=59).map(ms),
        st.integers(min_value=1, max_value=HORIZON - 1),
    ),
    max_size=10,
)


def run(population, bookings, cuts):
    """Run ``population`` to ``HORIZON`` with events booked at
    ``bookings`` before the run, cut at ``cuts``; returns every booked
    event as ``[due, fired at or None]``, the grace periods missed and
    the clock at the end."""
    rd = ResourceDistributor(machine=MachineConfig.ideal(), sim=SimConfig(seed=3))
    booked = []

    def book(due):
        record = [due, None]
        booked.append(record)

        def fire():
            record[1] = rd.now

        rd.at(due, fire)

    def body_for(step, every, lead):
        def body(ctx):
            i = 0
            while True:
                yield Compute(us(step))
                i += 1
                # Books from its body every few steps, and at every step
                # it runs in a grace slice.
                if every and (i % every == 0 or ctx.preemption_pending()):
                    book(ctx.now + us(lead))

        return body

    threads = []
    for n, (period_ms, rate, check, step, every, lead) in enumerate(population):
        period = ms(period_ms)
        definition = TaskDefinition(
            name=f"t{n}",
            resource_list=ResourceList(
                [
                    ResourceListEntry(
                        period, period * rate // 100, body_for(step, every, lead), f"t{n}"
                    )
                ]
            ),
            preemption=PreemptionConfig(us(check)) if check else None,
        )
        try:
            threads.append(rd.admit(definition))
        except AdmissionError:
            pass
    for due in bookings:
        book(due)
    for cut in sorted(set(cuts)):
        rd.run_until(cut)
    rd.run_until(HORIZON)
    return booked, sum(t.missed_grace_count for t in threads), rd.now


# Deviation 7 as it was filed: a polite task preempted at 10 ms by the
# short task's boundary runs on in a 150 us grace slice, and the event
# booked before the run, due at 10.05 ms, fired at 10.15 ms.
@example([(30, 40, 150, 50, 0, 0), (10, 30, None, 50, 0, 0)], [ms(10.05)], [])
@example([(30, 40, 500, 50, 3, 30), (10, 30, None, 50, 0, 0)], [ms(10.1)], [ms(10.1)])
@given(st.lists(tasks, min_size=1, max_size=5), external, cut_times)
@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_every_booked_event_fires_at_its_due_tick(population, bookings, cuts):
    booked, _, end = run(population, bookings, cuts)
    late = [(due, fired) for due, fired in booked if due <= HORIZON and fired != due]
    assert not late, late
    assert all(fired is None for due, fired in booked if due > HORIZON)
    assert end == HORIZON  # no slice, grace slices included, runs past it


def test_the_populations_reach_both_grace_outcomes():
    """The examples above grant grace slices, honoured and missed, and
    book events inside them."""
    for check in (150, 500):
        booked, missed, _ = run(
            [(30, 40, check, 50, 3, 30), (10, 30, None, 50, 0, 0)], [ms(10.05)], []
        )
        assert (missed > 0) == (check == 500)
        assert any(ms(10) < due <= ms(10.2) for due, _ in booked[1:])
