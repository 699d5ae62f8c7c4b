"""Direct unit tests of the RD scheduler's timer rules (section 4.2).

"The Scheduler sets a timer interrupt for the next context switch.
This occurs at the earlier of: (1) the end of the grant for this thread
for this period, or (2) the beginning of a new period for another
thread whose next-period end precedes the period end for the thread
about to run."
"""

import itertools
import random

import pytest

from repro import MachineConfig, SimConfig, TaskDefinition, units
from repro.core.distributor import ResourceDistributor
from repro.core.resource_list import ResourceList, ResourceListEntry
from repro.core.scheduler import RDScheduler
from repro.fuzz.reference import FromScratchScheduler
from repro.tasks.base import Compute, DonePeriod, InsertIdleCycles
from repro.workloads import grant_follower, single_entry_definition


def ms(x):
    return units.ms_to_ticks(x)


def build(*specs, overlap_us=0.0):
    """specs: (name, period_ms, rate).  Returns (rd, threads...)"""
    machine = MachineConfig(
        interrupt_reserve=0.0,
        switch_costs=MachineConfig.ideal().switch_costs,
        overlap_override_ticks=units.us_to_ticks(overlap_us),
        admission_cost_ticks=0,
    )
    rd = ResourceDistributor(machine=machine, sim=SimConfig(seed=0))
    threads = [
        rd.admit(single_entry_definition(name, period, rate, greedy=True))
        for name, period, rate in specs
    ]
    rd.run_for(1)  # activate first grants at t=0..1
    return rd, threads


class TestGrantEndRule:
    def test_sole_thread_timer_is_grant_end(self):
        rd, (t,) = build(("solo", 10, 0.4))
        timer = rd.scheduler.timer_for(t, rd.now)
        # Grant end: now + remaining.
        assert timer == rd.now + t.remaining

    def test_timer_capped_by_own_deadline(self):
        rd, (t,) = build(("solo", 10, 0.4))
        # Artificially inflate remaining beyond the deadline.
        t.remaining = ms(50)
        assert rd.scheduler.timer_for(t, rd.now) == t.deadline


class TestBoundaryRule:
    def test_earlier_deadline_boundary_preempts(self):
        rd, (long, short) = build(("long", 50, 0.5), ("short", 10, 0.3))
        # While the long thread runs, the short thread's next period
        # start (its current deadline) must bound the timer: the short
        # thread's next-period end (20 ms) precedes long's deadline.
        timer = rd.scheduler.timer_for(long, rd.now)
        assert timer <= short.deadline

    def test_later_deadline_boundary_does_not_preempt(self):
        # Reverse: the long thread's boundary never preempts the short
        # one (long's next-period end is far past short's deadline).
        rd, (long, short) = build(("long", 50, 0.2), ("short", 10, 0.3))
        timer = rd.scheduler.timer_for(short, rd.now)
        assert timer == rd.now + short.remaining

    def test_equal_periods_do_not_preempt(self):
        rd, (a, b) = build(("a", 10, 0.4), ("b", 10, 0.4))
        timer = rd.scheduler.timer_for(a, rd.now)
        # b's boundary coincides with a's deadline: strict "precedes"
        # means no preemption point before a's own limits.
        assert timer == rd.now + a.remaining


class TestOverlapOverride:
    def test_small_overlap_extends_to_grant_end(self):
        # Long grant ends 100 us past short's boundary: with a 200 us
        # override the timer skips the boundary.
        rd, (long, short) = build(
            ("long", 30, 7.1 / 30), ("short", 10, 0.3), overlap_us=200.0
        )
        # Simulate the moment: long has run 7 ms by t=10 ms boundary.
        rd.run_until(ms(3))  # short ran 0-3
        timer = rd.scheduler.timer_for(long, rd.now)
        assert timer == rd.now + long.remaining  # grant end at 10.1 ms

    def test_zero_threshold_preempts_at_boundary(self):
        rd, (long, short) = build(
            ("long", 30, 7.1 / 30), ("short", 10, 0.3), overlap_us=0.0
        )
        rd.run_until(ms(3))
        timer = rd.scheduler.timer_for(long, rd.now)
        assert timer == short.deadline  # the 10 ms boundary


class TestUnallocatedTimer:
    def test_idle_timer_is_next_fresh_allocation(self):
        rd, (t,) = build(("solo", 10, 0.4))
        idle = rd.kernel.idle
        timer = rd.scheduler.timer_for(idle, rd.now)
        assert timer == t.deadline

    def test_idle_timer_infinite_with_no_threads(self):
        rd = ResourceDistributor(machine=MachineConfig.ideal(), sim=SimConfig(seed=0))
        timer = rd.scheduler.timer_for(rd.kernel.idle, 0)
        assert timer == units.INFINITE

    def test_overtime_runner_preempted_by_any_boundary(self):
        rd, (greedy, other) = build(("greedy", 10, 0.3), ("other", 40, 0.2))
        # Run until greedy is in overtime (its grant exhausted).
        rd.run_until(ms(6))
        assert not greedy.eligible_time_remaining(rd.now)
        timer = rd.scheduler.timer_for(greedy, rd.now)
        # Bounded by its own next period start (10 ms).
        assert timer <= greedy.deadline


def scan_rule_two(scheduler, thread, now, limit):
    """Rule (2) as a scan of every periodic thread — the reference."""
    return FromScratchScheduler._earliest_preempting_boundary(
        scheduler, thread, now, limit
    )


def valid_boundaries(scheduler, now):
    """The heap's content that matters: entries that still validate."""
    return sorted(
        {
            (boundary, thread.tid)
            for boundary, _, thread in scheduler._boundary_heap
            if scheduler._fresh_allocation_time(thread, now) == boundary
        }
    )


class TestBoundaryRuleReadsTheHeap:
    def test_matches_the_scan_on_a_dense_overload_set(self):
        """64 threads in overload with RM ops in flight: at each of 500
        consecutive rule-(2) reads the heap answers what the scan does,
        and holds the same valid entries afterwards as before."""
        rng = random.Random(7)
        rd = ResourceDistributor(machine=MachineConfig(), sim=SimConfig(seed=7))
        period_ms = itertools.cycle((5, 10, 20, 30, 40, 50, 100))

        def definition(i):
            period = ms(next(period_ms))
            top = rng.uniform(0.2, 0.9)
            rates = (top, top / 2, top / 5, top / 15, 0.5 / 64 * rng.uniform(0.5, 1))
            return TaskDefinition(
                name=f"t{i}",
                resource_list=ResourceList(
                    [
                        ResourceListEntry(period, max(1, round(period * r)), grant_follower)
                        for r in rates
                    ]
                ),
            )

        threads = rd.admit_many([definition(i) for i in range(64)])
        seen = {"calls": 0, "preempting": 0}
        heap_read = RDScheduler._earliest_preempting_boundary

        class Checking(RDScheduler):
            def _earliest_preempting_boundary(self, thread, now, limit):
                want = scan_rule_two(self, thread, now, limit)
                before = valid_boundaries(self, now)
                got = heap_read(self, thread, now, limit)
                assert got == want
                assert valid_boundaries(self, now) == before
                seen["calls"] += 1
                seen["preempting"] += want is not None
                return got

        rd.scheduler.__class__ = Checking
        step = 0
        while seen["calls"] < 500:
            rd.run_for(ms(1))
            # Churn keeps removals, re-assertions and first periods live.
            victim = threads[step % len(threads)]
            if step % 3 == 0:
                rd.enter_quiescent(victim.tid)
            elif step % 3 == 1:
                rd.wake(threads[(step - 1) % len(threads)].tid)
            step += 1
        assert seen["preempting"] > 25

    def test_removed_grant_is_no_preemptor_until_reasserted(self):
        rd, (long, short) = build(("long", 50, 0.5), ("short", 10, 0.3))
        scheduler, now = rd.scheduler, rd.now
        assert scheduler.timer_for(long, now) == short.deadline
        # short's grant is removed at its boundary: nothing fresh there.
        rd.enter_quiescent(short.tid)
        assert scheduler.timer_for(long, now) == now + long.remaining
        # The read dropped short's entry; the wake re-asserts the grant
        # and must queue the boundary again.
        rd.wake(short.tid)
        assert scheduler.timer_for(long, now) == short.deadline

    def test_postponed_period_start_preempts(self):
        def postponer(ctx):
            yield Compute(ms(1))
            yield InsertIdleCycles(ms(4))
            yield DonePeriod()

        rd = ResourceDistributor(machine=MachineConfig.ideal(), sim=SimConfig(seed=0))
        period = ms(10)
        short = rd.admit(
            TaskDefinition(
                name="short",
                resource_list=ResourceList(
                    [ResourceListEntry(period, ms(3), postponer, "short")]
                ),
            )
        )
        long = rd.admit(single_entry_definition("long", 100, 0.5, greedy=True))
        rd.run_until(ms(11))  # short's second period was postponed to 14 ms
        assert short.period_start == ms(14) > rd.now
        assert long.eligible_time_remaining(rd.now)
        # Its start, not its deadline (24 ms), is the fresh allocation.
        assert rd.scheduler.timer_for(long, rd.now) == ms(14)
        assert scan_rule_two(
            rd.scheduler, long, rd.now, min(rd.now + long.remaining, long.deadline)
        ) == ms(14)

    def test_own_boundary_is_never_returned(self):
        rd, (a, b) = build(("a", 10, 0.3), ("b", 40, 0.3))
        # a's deadline is the earliest boundary in the heap, below a's
        # own inflated limit; it is a's, so rule (2) passes over it and
        # leaves it queued.
        a.remaining = ms(50)
        before = valid_boundaries(rd.scheduler, rd.now)
        assert (a.deadline, a.tid) in before
        assert rd.scheduler.timer_for(a, rd.now) == a.deadline  # rule (1)'s cap
        assert rd.scheduler._earliest_preempting_boundary(
            a, rd.now, a.deadline + 1
        ) is None
        assert valid_boundaries(rd.scheduler, rd.now) == before

    def test_boundary_at_now_is_kept_not_returned(self):
        rd, (long, short) = build(("long", 50, 0.5), ("short", 10, 0.3))
        at = short.deadline  # short's period has not rolled over yet
        before = valid_boundaries(rd.scheduler, at)
        assert rd.scheduler._earliest_preempting_boundary(long, at, long.deadline) is None
        assert valid_boundaries(rd.scheduler, at) == before
        assert scan_rule_two(rd.scheduler, long, at, long.deadline) is None

    def test_limit_is_exclusive(self):
        rd, (long, short) = build(("long", 50, 0.5), ("short", 10, 0.3))
        read = rd.scheduler._earliest_preempting_boundary
        assert read(long, rd.now, short.deadline) is None
        assert read(long, rd.now, short.deadline + 1) == short.deadline

    def test_small_overlap_override_still_returns_the_limit(self):
        rd, (long, short) = build(
            ("long", 30, 7.1 / 30), ("short", 10, 0.3), overlap_us=200.0
        )
        rd.run_until(ms(3))
        limit = rd.now + long.remaining
        # The heap does name the 10 ms boundary; the override skips it.
        assert rd.scheduler._earliest_preempting_boundary(
            long, rd.now, limit
        ) == short.deadline
        assert rd.scheduler.timer_for(long, rd.now) == limit
