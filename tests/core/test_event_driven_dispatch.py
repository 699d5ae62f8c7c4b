"""Event-driven dispatch: channel wakes touch only the posted channel's
waiters, and the scheduler's heaps stay current from kernel events.

Each test here fails on a plausible wrong design: waking in channel
order instead of block order, waking every waiter on one post, waking
from the notification rather than from the pending count, leaving the
channel pointing at a kernel nobody is blocked in, letting a thread
that re-requests overtime on every poll pile up heap entries, or
re-picking on such a poll (or continuing one that spends no time), or
charging a run of ``Poll``s in one step that a per-poll loop would have
ended, audited or profiled differently.
"""

from __future__ import annotations

import pytest

from repro import (
    MachineConfig,
    SimConfig,
    SporadicServer,
    TaskDefinition,
    scenarios,
    units,
)
from repro.baselines.base import BaselineSystem
from repro.core.distributor import ResourceDistributor
from repro.core.kernel import POLICY_METHODS, Kernel
from repro.core.resource_list import ResourceList, ResourceListEntry
from repro.core.scheduler import RDScheduler
from repro.core.sporadic import POLL_COST
from repro.core.threads import ThreadState
from repro.errors import SchedulerError, TaskError
from repro.fuzz.reference import reference_stack
from repro.obs.prof import PhaseProfiler
from repro.tasks.base import (
    AssignGrant,
    Block,
    Compute,
    DonePeriod,
    InsertIdleCycles,
    Poll,
)
from repro.tasks.channels import Channel
from repro.workloads import grant_follower, single_entry_definition

from tests.conftest import live_sporadic


def ms(x):
    return units.ms_to_ticks(x)


def one_entry(name, fn, period_ms=10, rate=0.2):
    period = ms(period_ms)
    return TaskDefinition(
        name=name,
        resource_list=ResourceList(
            [ResourceListEntry(period, round(period * rate), fn, name)]
        ),
    )


def blocker(channel, log=None, name=""):
    """Blocks on ``channel`` at the start of every call."""

    def task(ctx):
        yield Block(channel)
        if log is not None:
            log.append((name, ctx.now))
        yield Compute(ms(1))
        yield DonePeriod()

    return task


def wakes(rd):
    return [b.thread_id for b in rd.trace.blocks if not b.blocked]


class TestWakeDelivery:
    def test_two_channels_posted_in_one_instant_wake_in_block_order(self, ideal_rd):
        first, second = Channel("first"), Channel("second")
        a = ideal_rd.admit(one_entry("a", blocker(first)))
        b = ideal_rd.admit(one_entry("b", blocker(second)))

        def post_both():
            second.post()  # the later blocker's channel fires first
            first.post()

        ideal_rd.at(ms(3), post_both)
        ideal_rd.run_for(ms(5))
        blocks = [x.thread_id for x in ideal_rd.trace.blocks if x.blocked]
        assert blocks == [a.tid, b.tid]
        assert wakes(ideal_rd) == [a.tid, b.tid]

    def test_surplus_posts_stay_pending(self, ideal_rd):
        channel = Channel("c")
        ideal_rd.admit(one_entry("a", blocker(channel)))
        ideal_rd.at(ms(3), lambda: channel.post(2))
        ideal_rd.run_for(ms(5))
        assert len(wakes(ideal_rd)) == 1
        assert channel.pending == 1

    def test_one_post_wakes_only_the_first_of_two_waiters(self, ideal_rd):
        channel = Channel("c")
        a = ideal_rd.admit(one_entry("a", blocker(channel)))
        b = ideal_rd.admit(one_entry("b", blocker(channel)))
        ideal_rd.at(ms(3), channel.post)
        ideal_rd.run_for(ms(5))
        assert wakes(ideal_rd) == [a.tid]
        assert b.state is ThreadState.BLOCKED
        assert channel.waker is not None  # b is still waiting

    def test_post_eaten_before_delivery_leaves_the_waiter_blocked(self, ideal_rd):
        channel = Channel("c")
        waiter = ideal_rd.admit(one_entry("waiter", blocker(channel)))
        ate = []

        def thief(ctx):
            yield Compute(ms(1))
            # Post and take back inside one generator step: by the
            # delivery point that follows the step, nothing is pending.
            channel.post()
            ate.append(channel.try_take())
            yield DonePeriod()

        ideal_rd.admit(one_entry("thief", thief))
        ideal_rd.run_for(ms(8))
        assert ate and all(ate)
        assert wakes(ideal_rd) == []
        assert waiter.state is ThreadState.BLOCKED
        channel.post()
        ideal_rd.run_for(ms(1))
        assert wakes(ideal_rd) == [waiter.tid]

    def test_waiter_that_exited_while_blocked_is_skipped(self, ideal_rd):
        channel = Channel("c")
        a = ideal_rd.admit(one_entry("a", blocker(channel)))
        b = ideal_rd.admit(one_entry("b", blocker(channel)))
        ideal_rd.run_for(ms(2))
        ideal_rd.exit_thread(a.tid)
        ideal_rd.run_for(ms(10))  # the removal takes effect at a's boundary
        assert a.state is ThreadState.EXITED
        channel.post()
        ideal_rd.run_for(ms(1))
        assert wakes(ideal_rd) == [b.tid]
        assert channel.pending == 0

    def test_channel_forgets_the_kernel_when_the_last_waiter_leaves(self, ideal_rd):
        channel = Channel("c")
        ideal_rd.admit(one_entry("a", blocker(channel), period_ms=50))
        ideal_rd.run_for(ms(2))
        assert channel.waker is not None
        channel.post()
        ideal_rd.run_for(ms(10))  # woken, computes, done; next call is at 50 ms
        assert wakes(ideal_rd) != []
        assert channel.waker is None
        assert ideal_rd.kernel._waiters == {}
        channel.post()
        assert ideal_rd.kernel._posted == []  # the post did no kernel work
        assert channel.pending == 1

    def test_only_exited_waiters_left_also_clears_the_slot(self, ideal_rd):
        channel = Channel("c")
        a = ideal_rd.admit(one_entry("a", blocker(channel)))
        ideal_rd.run_for(ms(2))
        ideal_rd.exit_thread(a.tid)
        ideal_rd.run_for(ms(10))
        channel.post()
        ideal_rd.run_for(ms(1))
        assert wakes(ideal_rd) == []
        assert channel.waker is None and channel.pending == 1

    def test_one_channel_serves_two_distributors_in_turn(self):
        channel = Channel("shared")
        runs = []
        for seed in (1, 2):
            rd = ResourceDistributor(
                machine=MachineConfig.ideal(), sim=SimConfig(seed=seed)
            )
            thread = rd.admit(one_entry("a", blocker(channel), period_ms=50))
            rd.at(ms(3), channel.post)
            rd.run_for(ms(10))
            assert wakes(rd) == [thread.tid]
            assert channel.waker is None and channel.pending == 0
            runs.append(rd)
        # The second run's post reached only the second kernel.
        assert len(runs[0].trace.blocks) == len(runs[1].trace.blocks) == 2


class TestHooklessPolicy:
    @pytest.mark.parametrize(
        "hook", ["on_period_open", "on_wake", "on_overtime_request"]
    )
    def test_refused_lacking(self, hook):
        """The hooks are the policy interface, not an option: the kernel
        calls them without checking, so a policy that lacks one is
        refused when bound, by name, and the kernel stays unbound."""
        methods = {
            name: lambda *args: None for name in POLICY_METHODS if name != hook
        }
        policy = type("Partial", (), methods)()
        kernel = Kernel(MachineConfig.ideal(), SimConfig(seed=3))
        with pytest.raises(SchedulerError, match=f"Partial .* lacks {hook}$"):
            kernel.bind_policy(policy)
        assert kernel.policy is None

    def test_a_baseline_wakes_through_the_hooks(self):
        """A baseline is the RD's Scheduler without a Resource Manager:
        its wake reaches the heaps through the hook, and a waiter
        shares the CPU with a greedy task without a miss."""
        system = BaselineSystem(machine=MachineConfig.ideal(), sim=SimConfig(seed=3))
        assert isinstance(system.policy, RDScheduler)
        channel = Channel("c")
        log = []
        waiter = system.admit(one_entry("waiter", blocker(channel, log, "waiter")))
        system.admit(single_entry_definition("greedy", 10, 0.3, greedy=True))
        system.at(ms(4), channel.post)
        system.run_for(ms(30))
        assert log and log[0] == ("waiter", ms(4))
        assert [b.thread_id for b in system.trace.blocks if not b.blocked] == [
            waiter.tid
        ]
        # Every later period of the waiter blocks again; none is a miss.
        assert system.trace.misses() == []


def poller(polls):
    """Spends its grant, asks for overtime, then polls on it — a unit of
    work and another request — as the greedy Sporadic Server does,
    counting each poll into ``polls``."""

    def task(ctx):
        yield Compute(ctx.grant.cpu_ticks)
        yield DonePeriod(overtime=True)
        while True:
            yield Compute(POLL_COST)
            polls.append(ctx.now)
            yield DonePeriod(overtime=True)

    return task


class ComputePollServer(SporadicServer):
    """The greedy server's body with its poll stated as a ``Compute``,
    which promises nothing about the op after it: the kernel resumes
    the body once per poll."""

    def _run(self, ctx):
        done = DonePeriod(overtime=self.greedy)
        while True:
            yield Compute(POLL_COST)
            task = self._next_ready()
            if task is not None:
                yield AssignGrant(task.tid, self.slice_ticks)
            else:
                yield done


def audited_run(scenario, duration):
    """Run ``scenario`` under a strict sanitizer and a phase profiler;
    return its trace records, every audit's ``(tid, now)`` and the
    profiler's counts."""
    rd = scenario.rd
    rd.attach_sanitizer(strict=True)
    audits = []
    check = rd.sanitizer.on_pick

    def on_pick(thread, now):
        audits.append((thread.tid, now))
        check(thread, now)

    rd.sanitizer.on_pick = on_pick
    prof = PhaseProfiler()
    rd.attach_prof(prof)
    rd.run_for(duration)
    assert rd.sanitizer.ok
    trace = rd.trace
    return {
        "segments": trace.segments,
        "switches": trace.switches,
        "deadlines": trace.deadlines,
        "grant_changes": trace.grant_changes,
        "audits": audits,
        "prof": prof.counts,
    }


def counted_picks(policy):
    """Shadow ``policy.pick`` with a wrapper that notes each call's
    time; returns that list."""
    calls = []
    real = policy.pick

    def pick(now):
        calls.append(now)
        return real(now)

    policy.pick = pick
    return calls


class TestPolls:
    """A poll — ``DonePeriod(overtime=True)`` from a thread already on
    OvertimeRequested — changes no queue.  The kernel keeps the slice
    going under every policy; only the from-scratch reference re-picks."""

    def test_baselines_continue_and_the_reference_re_picks(self):
        rd = ResourceDistributor(
            machine=MachineConfig.ideal(), sim=SimConfig(seed=3),
            sanitize=True, sanitize_strict=True,
        )
        system = BaselineSystem(machine=MachineConfig.ideal(), sim=SimConfig(seed=3))
        reference = ResourceDistributor(
            machine=MachineConfig.ideal(), sim=SimConfig(seed=3)
        )
        reference_stack(reference)
        runs = []
        for owner, policy in (
            (rd, rd.scheduler),
            (system, system.policy),
            (reference, reference.scheduler),
        ):
            polls = []
            owner.admit(one_entry("poller", poller(polls)))
            picks = counted_picks(policy)
            owner.run_for(ms(100))
            runs.append((polls, picks))
        (rd_polls, rd_picks), (base_polls, base_picks), (ref_polls, ref_picks) = runs
        assert rd.trace.segments == system.trace.segments == reference.trace.segments
        assert rd_polls == base_polls == ref_polls and len(rd_polls) > 7_000
        # Ten periods: a pick at each open and one when the grant runs out.
        assert len(rd_picks) <= 30 and len(base_picks) <= 30
        assert rd.sanitizer.ok and rd.sanitizer.decisions_checked > len(rd_polls)
        assert len(ref_picks) > len(ref_polls)

    def test_a_poll_that_spends_no_time_is_still_a_livelock(self, ideal_rd):
        def spinner(ctx):
            yield Compute(ctx.grant.cpu_ticks)
            while True:
                yield DonePeriod(overtime=True)

        ideal_rd.admit(one_entry("spinner", spinner))
        with pytest.raises(SchedulerError, match="no progress"):
            ideal_rd.run_for(ms(10))

    @pytest.mark.parametrize("ticks", [0, -1])
    def test_a_poll_needs_positive_ticks(self, ticks):
        with pytest.raises(TaskError, match="Poll needs a positive tick count"):
            Poll(ticks)

    @pytest.mark.parametrize(
        "build, duration",
        [
            (lambda: scenarios.av_pipeline(61), units.sec_to_ticks(1)),
            (lambda: scenarios.figure5(seed=0), ms(400)),
            (lambda: scenarios.figure4(), ms(400)),
        ],
        ids=["av_pipeline", "figure5", "figure4"],
    )
    def test_a_run_of_polls_charged_in_one_step_is_the_per_poll_run(
        self, build, duration, monkeypatch
    ):
        """The server's ``Poll`` lets the kernel charge every poll that
        ends before the slice's limit in one step; the same body stating
        its poll as a ``Compute`` is resumed once per poll.  Nothing a
        reader of the run can see may tell the two apart — not the
        trace, not the audit of each poll at its own end, not the
        profiler's counts."""
        runs = []
        for server in (SporadicServer, ComputePollServer):
            monkeypatch.setattr(scenarios, "SporadicServer", server)
            runs.append(audited_run(build(), duration))
        charged, per_poll = runs
        for name in ("segments", "switches", "deadlines", "grant_changes"):
            assert charged[name] == per_poll[name], name
        assert charged["audits"] == per_poll["audits"]
        assert charged["prof"] == per_poll["prof"]
        assert len(charged["audits"]) > 10 * len(charged["switches"])


class TestBoundaryRearm:
    def test_cancelled_removal_rearms_the_idle_timer(self, ideal_rd):
        """A pending removal lets the thread's boundary be dropped; the
        wake that cancels it must queue the deadline again, or Idle
        sleeps through the thread's next period."""
        thread = ideal_rd.admit(single_entry_definition("t", 30, 0.2))
        ideal_rd.run_for(ms(8))  # grant used; Idle runs with t's deadline ahead
        ideal_rd.enter_quiescent(thread.tid)
        ideal_rd.run_for(ms(2))  # Idle again: t no longer bounds the timer
        idle = ideal_rd.kernel.idle
        assert ideal_rd.scheduler.timer_for(idle, ideal_rd.now) == units.INFINITE
        ideal_rd.wake(thread.tid)
        assert ideal_rd.scheduler.timer_for(idle, ideal_rd.now) == thread.deadline
        ideal_rd.run_for(ms(110))
        assert ideal_rd.trace.misses() == []
        closed = [d for d in ideal_rd.trace.deadlines if d.thread_id == thread.tid]
        assert [d.deadline for d in closed] == [ms(30), ms(60), ms(90), ms(120)]
        assert all(d.delivered == d.granted for d in closed)


    def test_wake_inside_a_postponed_period_rearms_its_start(self, ideal_rd):
        """Blocked across a boundary, the thread's entries are dropped;
        woken before its postponed period begins, that period's start
        must end the Idle stretch — not its deadline, 10 ms later."""
        channel = Channel("c")

        def task(ctx):
            yield Compute(ms(1))
            yield InsertIdleCycles(ms(4))
            yield Block(channel)
            yield Compute(ms(1))
            yield DonePeriod()

        thread = ideal_rd.admit(one_entry("t", task))
        ideal_rd.run_for(ms(11))  # period 1 opened: starts at 14, ends at 24
        assert thread.state is ThreadState.BLOCKED
        assert (thread.period_start, thread.deadline) == (ms(14), ms(24))
        ideal_rd.run_for(ms(1))  # Idle: a blocked thread bounds nothing
        channel.post()
        ideal_rd.run_for(ms(28))
        starts = [s.start for s in ideal_rd.trace.segments_for(thread.tid)]
        assert starts[:2] == [0, ms(14)]


def heap_sizes(rd):
    scheduler = rd.scheduler
    return {
        "ready": len(scheduler._ready_heap),
        "overtime": len(scheduler._overtime_heap),
        "boundary": len(scheduler._boundary_heap),
    }


def live_threads(rd):
    return sum(
        1 for t in rd.kernel.periodic_threads() if t.state is not ThreadState.EXITED
    )


class TestHeapBounds:
    """One entry per thread and deadline: the duplicate-push trap."""

    def test_bounded_after_2000_grant_notifications_in_overload(self):
        rd = ResourceDistributor(machine=MachineConfig(), sim=SimConfig(seed=5))
        periods = (5, 10, 20, 30, 40, 50, 100)
        definitions = []
        for i in range(64):
            period = ms(periods[i % len(periods)])
            top = 0.2 + 0.7 * (i % 16) / 16
            entries = []
            for rate in (top, top / 2, top / 5, top / 15, 0.5 / 64):
                cpu = max(1, round(period * rate))
                if not entries or cpu < entries[-1].cpu_ticks:
                    entries.append(ResourceListEntry(period, cpu, grant_follower))
            definitions.append(
                TaskDefinition(name=f"t{i}", resource_list=ResourceList(entries))
            )
        threads = rd.admit_many(definitions)
        notified = rd.resource_manager.recompute_count
        quiescent = []
        for step in range(2000):
            if step % 2 == 0:
                tid = threads[(step // 2) % len(threads)].tid
                rd.enter_quiescent(tid)
                quiescent.append(tid)
            else:
                rd.wake(quiescent.pop())
            if step % 4 == 3:
                rd.run_for(ms(1))
        assert rd.resource_manager.recompute_count - notified >= 2000
        live = live_threads(rd)
        assert live == 64
        for name, size in heap_sizes(rd).items():
            assert size <= 4 * live, (name, size)

    def test_bounded_after_100k_greedy_server_polls(self):
        rd = ResourceDistributor(
            machine=MachineConfig.ideal(), sim=SimConfig(seed=5)
        )
        server = SporadicServer(rd, greedy=True)
        rd.admit(one_entry("blocked", blocker(Channel("never")), period_ms=30))
        rd.admit(single_entry_definition("worker", 10, 0.2))
        switches_before = len(rd.trace.switches)
        rd.run_for(units.sec_to_ticks(1.3))
        # Each poll is one 10 us Compute of the server in overtime.
        assert server.thread.total_overtime_ticks >= 100_000 * POLL_COST
        assert len(rd.trace.switches) > switches_before
        live = live_threads(rd)
        for name, size in heap_sizes(rd).items():
            assert size <= 4 * live, (name, size)

    def test_fully_allocated_machine_still_sheds_old_entries(self):
        """With no unallocated time pick never reads the overtime or
        boundary heap; pushing must shed the closed periods' entries."""
        rd = ResourceDistributor(
            machine=MachineConfig.ideal(), sim=SimConfig(seed=5)
        )
        for i in range(4):
            rd.admit(single_entry_definition(f"t{i}", 5, 0.25, greedy=True))
        rd.run_for(units.sec_to_ticks(1))
        assert not any(s.thread_id == 0 for s in rd.trace.segments)  # never Idle
        live = live_threads(rd)
        for name, size in heap_sizes(rd).items():
            assert size <= 4 * live, (name, size)


class TestSporadicRotation:
    def test_round_robin_order_is_kept_across_an_exit(self, ideal_rd):
        order = []

        def job(name, slices):
            def run(ctx):
                for _ in range(slices):
                    order.append(name)
                    yield Compute(ms(1))
                    yield DonePeriod()  # pause: the assignment ends early

            return run

        server = SporadicServer(
            ideal_rd, period=ms(10), cpu_ticks=ms(5), slice_ticks=ms(1), greedy=False
        )
        server.spawn("a", job("a", 4))
        b = server.spawn("b", job("b", 1))
        server.spawn("c", job("c", 4))
        ideal_rd.run_for(ms(60))
        assert b.state is ThreadState.EXITED
        # b leaves after its turn; a and c keep alternating in the same
        # relative order, with no turn skipped or repeated.
        assert order == ["a", "b", "c", "a", "c", "a", "c", "a", "c"]
        assert live_sporadic(server) == 0
