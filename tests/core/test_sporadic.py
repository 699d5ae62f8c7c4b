"""Sporadic Server (section 5.1): grant assignment, round robin, liveness."""

import pytest

from repro import SporadicServer, units
from repro.core.threads import ThreadState
from repro.sim.trace import SegmentKind
from repro.tasks.base import Block, Compute
from repro.tasks.channels import Channel

from tests.conftest import admit_simple, live_sporadic


def ms(x):
    return units.ms_to_ticks(x)


def finite_job(total_ms):
    def job(ctx):
        chunk = units.us_to_ticks(100)
        remaining = ms(total_ms)
        while remaining > 0:
            step = min(chunk, remaining)
            yield Compute(step)
            remaining -= step

    return job


class TestAssignment:
    def test_sporadic_work_is_charged_to_the_server(self, ideal_rd):
        server = SporadicServer(ideal_rd, greedy=False)
        task = server.spawn("batch", finite_job(2))
        ideal_rd.run_for(ms(500))
        assigned = [
            s
            for s in ideal_rd.trace.segments
            if s.thread_id == task.tid and s.kind is SegmentKind.ASSIGNED
        ]
        assert assigned
        assert all(s.charged_to == server.thread.tid for s in assigned)

    def test_sporadic_task_completes_and_exits(self, ideal_rd):
        server = SporadicServer(ideal_rd, greedy=False)
        task = server.spawn("batch", finite_job(2))
        ideal_rd.run_for(ms(500))
        assert task.state is ThreadState.EXITED
        assert live_sporadic(server) == 0

    def test_sporadic_progress_is_bounded_by_server_grant(self, ideal_rd):
        # Server: 1 ms guaranteed per 100 ms, plus whatever overtime it
        # wins on EDF ties (once per coinciding boundary).  A 5 ms job
        # therefore cannot finish inside the first 100 ms, but completes
        # well within 800 ms.
        server = SporadicServer(ideal_rd, greedy=False)
        admit_simple(ideal_rd, "load", period_ms=10, rate=0.9, greedy=True)
        task = server.spawn("batch", finite_job(5))
        ideal_rd.run_for(ms(100))
        assert task.state is ThreadState.ACTIVE  # not done yet
        assert ideal_rd.trace.busy_ticks(task.tid) <= ms(2)
        ideal_rd.run_for(ms(700))
        assert task.state is ThreadState.EXITED

    def test_no_guarantees_but_liveness(self, ideal_rd):
        """A conventional task keeps making progress even with a 90 %
        periodic load (guaranteed liveness for non-real-time tasks)."""
        server = SporadicServer(ideal_rd, greedy=False)
        admit_simple(ideal_rd, "mm", period_ms=10, rate=0.9, greedy=True)
        task = server.spawn("shell", finite_job(3))
        ideal_rd.run_for(ms(800))
        assert task.state is ThreadState.EXITED


class TestRoundRobin:
    def test_multiple_sporadics_share_the_server(self, ideal_rd):
        server = SporadicServer(
            ideal_rd, slice_ticks=ms(1), greedy=False
        )
        a = server.spawn("a", finite_job(2))
        b = server.spawn("b", finite_job(2))
        ideal_rd.run_for(ms(900))
        # Both ran; neither was starved by the other.
        assert a.state is ThreadState.EXITED
        assert b.state is ThreadState.EXITED
        progress_a = ideal_rd.trace.busy_ticks(a.tid)
        progress_b = ideal_rd.trace.busy_ticks(b.tid)
        assert progress_a == pytest.approx(ms(2), abs=ms(0.2))
        assert progress_b == pytest.approx(ms(2), abs=ms(0.2))


class TestBlockingSporadic:
    def test_blocked_sporadic_returns_cpu_to_server(self, ideal_rd):
        channel = Channel("io")

        def io_task(ctx):
            yield Compute(ms(1))
            yield Block(channel)
            yield Compute(ms(1))

        server = SporadicServer(ideal_rd, greedy=False)
        task = server.spawn("io", io_task)
        other = server.spawn("other", finite_job(1))
        ideal_rd.at(ms(700), channel.post)
        ideal_rd.run_for(ms(1000))
        # The blocked task did not wedge the server: "other" finished
        # long before the wake, and "io" finished after it.
        assert other.state is ThreadState.EXITED
        assert task.state is ThreadState.EXITED


class TestReplenishment:
    def test_budget_replenishes_every_server_period(self, ideal_rd):
        """With the machine saturated by a greedy real-time task, the
        server gets exactly its 1 ms budget per 100 ms period: service
        stops when the budget exhausts and resumes at replenishment."""
        server = SporadicServer(ideal_rd, greedy=False)
        admit_simple(ideal_rd, "load", period_ms=10, rate=0.9, greedy=True)
        task = server.spawn("batch", finite_job(10))
        progress = []
        for _ in range(4):
            ideal_rd.run_for(ms(100))
            progress.append(ideal_rd.trace.busy_ticks(task.tid))
        # Each period window delivered some service (replenishment
        # happened) but never much more than the 1 ms budget (exhaustion
        # actually stopped the server mid-period).
        deltas = [b - a for a, b in zip([0] + progress, progress)]
        assert all(delta >= ms(0.5) for delta in deltas)
        assert all(delta <= ms(2) for delta in deltas)

    def test_service_pauses_between_exhaustion_and_replenishment(self, ideal_rd):
        """Once the budget is gone, no assigned segment appears until the
        next server period opens."""
        server = SporadicServer(ideal_rd, greedy=False)
        admit_simple(ideal_rd, "load", period_ms=10, rate=0.9, greedy=True)
        task = server.spawn("batch", finite_job(10))
        ideal_rd.run_for(ms(400))
        assigned = [
            s
            for s in ideal_rd.trace.segments
            if s.thread_id == task.tid and s.kind is SegmentKind.ASSIGNED
        ]
        assert assigned
        gaps = [b.start - a.end for a, b in zip(assigned, assigned[1:])]
        # At least one exhaustion gap spanning most of the 100 ms period
        # (the server serves around each boundary it wins, then starves
        # until its budget replenishes at the next one).
        assert max(gaps) >= ms(80)


class TestFullGrantSet:
    def test_assignment_still_works_when_admission_is_full(self, ideal_rd):
        """A grant set using every schedulable cycle leaves the server
        exactly its admitted minimum — sporadic liveness survives."""
        server = SporadicServer(ideal_rd, greedy=False)
        admit_simple(ideal_rd, "a", period_ms=10, rate=0.50, greedy=True)
        admit_simple(ideal_rd, "b", period_ms=10, rate=0.49, greedy=True)
        # The machine is now exactly full: server 1% + 50% + 49%.
        with pytest.raises(Exception):
            admit_simple(ideal_rd, "c", period_ms=10, rate=0.01)
        task = server.spawn("batch", finite_job(3))
        ideal_rd.run_for(ms(400))
        progress = ideal_rd.trace.busy_ticks(task.tid)
        # ~1 ms per 100 ms period, no overtime available anywhere.
        assert ms(2) <= progress <= ms(5)
        assigned = [
            s
            for s in ideal_rd.trace.segments
            if s.thread_id == task.tid and s.kind is SegmentKind.ASSIGNED
        ]
        assert all(s.charged_to == server.thread.tid for s in assigned)


class TestQuiescentInteraction:
    def test_greedy_server_soaks_time_released_by_quiescent_task(self, ideal_rd):
        """A task going quiescent releases its grant; the greedy server
        absorbs the freed time, and loses it again on wake (§5.3 + §5.1)."""
        server = SporadicServer(ideal_rd, greedy=True)
        heavy = admit_simple(ideal_rd, "heavy", period_ms=10, rate=0.8, greedy=True)
        batch = server.spawn("batch", finite_job(1000))
        ideal_rd.at(ms(200), lambda: ideal_rd.enter_quiescent(heavy.tid))
        ideal_rd.at(ms(400), lambda: ideal_rd.wake(heavy.tid))
        ideal_rd.run_for(ms(600))
        # The server's soaked time shows up as ASSIGNED segments under
        # the sporadic task (charged to the server) plus the server's
        # own poll slices — count both.
        segs = ideal_rd.trace.segments_for(server.thread.tid) + [
            s
            for s in ideal_rd.trace.segments_for(batch.tid)
            if s.charged_to == server.thread.tid
        ]

        def busy(lo, hi):
            return sum(
                min(s.end, hi) - max(s.start, lo)
                for s in segs
                if s.end > lo and s.start < hi
            )

        active_before = busy(ms(100), ms(200))
        quiescent_window = busy(ms(250), ms(350))
        active_after = busy(ms(450), ms(550))
        # While the heavy task is quiescent the server owns almost the
        # whole machine; before and after, at most the ~20% leftover.
        assert quiescent_window >= ms(80)
        assert active_before <= ms(35)
        assert active_after <= ms(35)

    def test_wake_after_quiescence_is_never_denied(self, ideal_rd):
        server = SporadicServer(ideal_rd, greedy=True)
        heavy = admit_simple(ideal_rd, "heavy", period_ms=10, rate=0.8, greedy=True)
        ideal_rd.at(ms(100), lambda: ideal_rd.enter_quiescent(heavy.tid))
        ideal_rd.at(ms(200), lambda: ideal_rd.wake(heavy.tid))
        ideal_rd.run_for(ms(400))
        # The quiescent task's minimum stayed committed: it is granted
        # again after the wake and misses nothing.
        assert heavy.state is ThreadState.ACTIVE
        assert ideal_rd.trace.misses(heavy.tid) == []
        assert server.thread.state is ThreadState.ACTIVE


class TestGreedyServer:
    def test_greedy_server_soaks_unallocated_time(self, ideal_rd):
        server = SporadicServer(ideal_rd, greedy=True)
        admit_simple(ideal_rd, "light", period_ms=10, rate=0.2)
        ideal_rd.run_for(ms(100))
        server_time = ideal_rd.trace.busy_ticks(server.thread.tid)
        # ~80 % of the machine is unallocated; the greedy server gets it.
        assert server_time >= ms(60)

    def test_server_runs_at_least_every_period_of_shortest_task(self, ideal_rd):
        server = SporadicServer(ideal_rd, greedy=True)
        admit_simple(ideal_rd, "t", period_ms=10, rate=0.5)
        ideal_rd.run_for(ms(200))
        segs = ideal_rd.trace.segments_for(server.thread.tid)
        gaps = [b.start - a.end for a, b in zip(segs, segs[1:])]
        assert max(gaps) <= ms(10)
