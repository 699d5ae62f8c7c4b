"""Property test: the scheduler's lazy heaps are a pure optimization.

The scheduler answers the kernel's per-dispatch questions — the
TimeRemaining head, the OvertimeRequested head, the next fresh
allocation that ends unallocated time, the earliest boundary that
preempts a running grant (timer rule 2) — from lazy min-heaps fed by
period-open, wake and overtime-request events, and the kernel wakes
blocked threads from per-channel queues fed by ``Channel.post``.  The
from-scratch reference below answers the same questions the way the
scheduler and kernel used to: scan every periodic thread, apply the
eligibility predicate, take the (deadline, tid) minimum; walk every
blocked thread and try its channel.  Both must produce the
*identical* run for any stream of admissions, exits, quiescence,
wake-ups, channel posts, postponed periods and grants removed from
blocked threads, with a greedy Sporadic Server soaking up the
unallocated time in between.  Both runs execute under the strict
invariant sanitizer, so a divergence in internal state fails loudly
even if the traces happen to agree.
"""

from __future__ import annotations

import itertools

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import AdmissionError, MachineConfig, SimConfig, SporadicServer, units
from repro.core.distributor import ResourceDistributor
from repro.core.kernel import Kernel
from repro.core.resource_list import ResourceList, ResourceListEntry
from repro.core.scheduler import RDScheduler, _edf_key
from repro.core.threads import ThreadState
from repro.tasks.base import (
    Block,
    Compute,
    DonePeriod,
    InsertIdleCycles,
    TaskDefinition,
)
from repro.tasks.channels import Channel
from repro.workloads import single_entry_definition


class FromScratchScheduler(RDScheduler):
    """RDScheduler with every heap read replaced by the scan it retired.

    The heaps are still pushed to (the hooks are the same object's), but
    nothing here reads them.
    """

    def _scan_ready(self, now):
        eligible = [
            t
            for t in self.kernel.periodic_threads()
            if t.eligible_time_remaining(now)
        ]
        return min(eligible, key=_edf_key) if eligible else None

    def pick(self, now):
        head = self._scan_ready(now)
        if head is None and self._pending_activation:
            self._activate(now)
            head = self._scan_ready(now)
        if head is not None:
            return head
        best = None
        for thread in self.kernel.periodic_threads():
            if thread.eligible_overtime(now) and (
                best is None or _edf_key(thread) < _edf_key(best)
            ):
                best = thread
        return best if best is not None else self.kernel.idle

    def _unallocated_timer(self, thread, now):
        stop = units.INFINITE
        if not thread.is_idle and thread.in_period:
            stop = thread.deadline
        for other in self.kernel.periodic_threads():
            boundary = self._fresh_allocation_time(other, now)
            if boundary is not None and boundary < stop:
                stop = boundary
        return stop

    def _earliest_preempting_boundary(self, thread, now, limit):
        best = None
        for other in self.kernel.periodic_threads():
            if other is thread:
                continue
            boundary = self._fresh_allocation_time(other, now)
            if boundary is None or boundary <= now or boundary >= limit:
                continue
            if self._next_deadline_after(other, now) >= thread.deadline:
                continue
            if best is None or boundary < best:
                best = boundary
        return best


class ScanWakeKernel(Kernel):
    """Kernel that delivers posts the way it used to: walk every blocked
    thread in the order they blocked and try its channel."""

    def _deliver_posts(self):
        self._posted.clear()
        blocked = [t for t in self.threads.values() if t.state is ThreadState.BLOCKED]
        for thread in sorted(blocked, key=lambda t: t.block_seq):
            channel = thread.blocked_channel
            if channel.try_take():
                self._wake(thread, channel)


#: What an admitted task's body does each period.
BODIES = ["follower", "blocker", "postponer", "sleeper", "overtimer"]
KINDS = ["admit", "exit", "quiesce", "wake", "post", "drop-blocked"]


@st.composite
def change_streams(draw):
    """A randomized schedule of grant-set-changing operations."""
    count = draw(st.integers(min_value=2, max_value=10))
    ops = []
    for _ in range(count):
        ops.append(
            (
                draw(st.integers(min_value=1, max_value=110)),  # time, ms
                draw(st.sampled_from(KINDS)),
                draw(st.sampled_from([5, 10, 15, 30])),  # period, ms
                draw(st.integers(min_value=5, max_value=30)),  # rate, %
                draw(st.sampled_from(BODIES)),
                draw(st.integers(min_value=0, max_value=3)),  # channel / count
            )
        )
    return draw(st.booleans()), ops  # with a greedy Sporadic Server?


def _definition(name, period_ms, rate, body, channel):
    """A one-level task whose body exercises one scheduler transition."""
    if body == "follower":
        return single_entry_definition(name, period_ms, rate)
    period = units.ms_to_ticks(period_ms)
    cpu = max(1, round(period * rate))
    chunk = max(1, cpu // 3)

    def blocker(ctx):
        # Blocks mid-grant; the wake may land in this period or a later one.
        yield Compute(chunk)
        yield Block(channel)
        yield Compute(chunk)
        yield DonePeriod()

    def postponer(ctx):
        yield Compute(chunk)
        yield InsertIdleCycles(units.ms_to_ticks(2))
        yield DonePeriod()

    def sleeper(ctx):
        # Blocks into a postponed period: woken before it starts, the
        # period's start (not its deadline) must bound unallocated time.
        yield Compute(chunk)
        yield InsertIdleCycles(units.ms_to_ticks(3))
        yield Block(channel)
        yield Compute(chunk)
        yield DonePeriod()

    def overtimer(ctx):
        # Runs out of granted time with work left, then asks for more.
        yield Compute(cpu + chunk)
        yield DonePeriod(overtime=True)
        yield Compute(chunk)

    function = {
        "blocker": blocker,
        "postponer": postponer,
        "sleeper": sleeper,
        "overtimer": overtimer,
    }[body]
    return TaskDefinition(
        name=name,
        resource_list=ResourceList([ResourceListEntry(period, cpu, function, name)]),
    )


def run_stream(stream, reference: bool):
    with_server, ops = stream
    rd = ResourceDistributor(
        machine=MachineConfig.ideal(),
        sim=SimConfig(seed=1),
        sanitize=True,
        sanitize_strict=True,
    )
    if reference:
        # Same object layout, overridden reads: the two runs differ only
        # in how the queue heads and the two timers are found.
        rd.scheduler.__class__ = FromScratchScheduler
        rd.kernel.__class__ = ScanWakeKernel
    names = itertools.count()
    channels = [Channel("c0"), Channel("c1")]
    admitted = []
    if with_server:

        def job(ctx):
            for _ in range(40):
                yield Compute(units.us_to_ticks(200))
                yield Block(channels[1])

        server = SporadicServer(rd, period=units.ms_to_ticks(20), greedy=True)
        server.spawn("job", job)

    def action(kind, period_ms, rate_pct, body, n):
        def fire():
            manager = rd.resource_manager
            if kind == "admit":
                try:
                    admitted.append(
                        rd.admit(
                            _definition(
                                f"t{next(names)}",
                                period_ms,
                                rate_pct / 100.0,
                                body,
                                channels[n % 2],
                            )
                        )
                    )
                except AdmissionError:
                    pass
                return
            if kind == "post":
                # Both channels in one instant when n is odd: the wakes
                # must come out in block order, not channel order.
                channels[n % 2].post(1 + n // 2)
                if n % 2:
                    channels[0].post()
                return
            live = [t for t in admitted if t.tid in manager.admitted_ids()]
            if not live:
                return
            target = live[len(live) // 2]
            if kind == "exit":
                rd.exit_thread(target.tid)
            elif kind == "quiesce":
                if target.state is not ThreadState.EXITED:
                    rd.enter_quiescent(target.tid)
            elif kind == "wake":
                quiescent = [t for t in live if manager.is_quiescent(t.tid)]
                if quiescent:
                    rd.wake(quiescent[0].tid)
            elif kind == "drop-blocked":
                # A grant removed while its thread is blocked.
                blocked = [t for t in live if t.state is ThreadState.BLOCKED]
                if blocked:
                    victim = blocked[n % len(blocked)]
                    if n < 2:
                        rd.exit_thread(victim.tid)
                    else:
                        rd.enter_quiescent(victim.tid)

        return fire

    admitted.append(rd.admit(single_entry_definition("seed", 10, 0.2)))
    admitted.append(rd.admit(_definition("blocker", 15, 0.1, "blocker", channels[0])))
    for at_ms, kind, period_ms, rate_pct, body, n in ops:
        rd.at(units.ms_to_ticks(at_ms), action(kind, period_ms, rate_pct, body, n))
    rd.run_for(units.ms_to_ticks(130))
    return rd


@given(change_streams())
@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_incremental_heap_matches_from_scratch_sort(stream):
    fast = run_stream(stream, reference=False)
    slow = run_stream(stream, reference=True)
    assert fast.sanitizer.ok and slow.sanitizer.ok
    assert fast.trace.segments == slow.trace.segments
    assert fast.trace.switches == slow.trace.switches
    assert fast.trace.deadlines == slow.trace.deadlines
    assert fast.trace.blocks == slow.trace.blocks
    assert fast.trace.grant_changes == slow.trace.grant_changes
