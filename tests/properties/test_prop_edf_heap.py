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

The reference kernel also consumes compute the way the kernel used to:
one op per trip round ``_execute`` — fetch, set ``pending_compute``,
``_consume``, one ``record_run`` per op — where the shipped kernel runs
whole ops that fit in a tight loop and records the run once.  The
bodies below aim at what that loop may assume: hundreds of macroblock
ops per period (fresh ``Compute`` instances on the reference side, one
shared frozen instance on the shipped side), a body that reads the
clock between two ops, one that posts a waited-on channel between two
ops, one that raises after a few ops, one that sits on zero-time ops at
an op boundary, and tasks registered for controlled preemption with a
check interval on either side of the grace period.
"""

from __future__ import annotations

import itertools

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import AdmissionError, MachineConfig, SimConfig, SporadicServer, units
from repro.core.distributor import ResourceDistributor
from repro.core.kernel import Kernel, SliceEnd
from repro.core.resource_list import ResourceList, ResourceListEntry
from repro.core.scheduler import RDScheduler, _edf_key
from repro.core.threads import SimThread, ThreadState
from repro.tasks.base import (
    Block,
    Compute,
    DonePeriod,
    InsertIdleCycles,
    PreemptionConfig,
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


class FromScratchKernel(Kernel):
    """Kernel that delivers posts and consumes compute the way it used
    to: walk every blocked thread in the order they blocked and try its
    channel; fetch one op, park it in ``pending_compute``, charge it
    through ``_consume`` (one trace record per op), go round again; and
    materialize the open trace segment at the end of every
    ``run_until``."""

    def run_until(self, horizon):
        super().run_until(horizon)
        self.trace.flush()

    def _deliver_posts(self):
        self._posted.clear()
        blocked = [t for t in self.threads.values() if t.state is ThreadState.BLOCKED]
        for thread in sorted(blocked, key=lambda t: t.block_seq):
            channel = thread.blocked_channel
            if channel.try_take():
                self._wake(thread, channel)

    # The op-at-a-time loop, verbatim from before whole-op runs (less
    # the line that re-delivered the period's grant to the context on
    # every fetch: the kernel now does that once, when the period opens).
    def _execute(self, thread: SimThread, stop: int) -> SliceEnd:
        """Run ``thread`` (or its assignee) until ``stop`` or a yield.

        When the clock reaches ``stop`` with no compute in flight we
        still fetch a bounded number of ops: a task whose work completes
        exactly as the timer fires yields (DonePeriod/Block) in the same
        instant, and treating that as a forced preemption would strand
        it on the wrong queue.  A Compute op ends the indulgence.
        """
        ops_at_stop = 0
        clock = self.clock
        posted = self._posted
        while True:
            if thread.assignment_target is None:
                runner, assigned = thread, False
            else:
                # Idempotent (a side-effectful call settles the
                # assignment state), so one call per iteration serves
                # both the stop check and the dispatch below.
                runner, assigned = self._current_runner(thread)
            now = clock.now
            if now >= stop:
                if runner.pending_compute > 0 or ops_at_stop >= 8:
                    return SliceEnd.FORCED
                ops_at_stop += 1

            if runner.pending_compute > 0:
                run = stop - now
                if assigned and thread.assignment_remaining < run:
                    run = thread.assignment_remaining
                if runner.pending_compute < run:
                    run = runner.pending_compute
                if run > 0:
                    self._consume(thread, runner, run, assigned)
                if assigned:
                    thread.assignment_remaining -= run
                    if thread.assignment_remaining <= 0:
                        # Assigned time consumed: return to the periodic task.
                        thread.clear_assignment()
                continue

            # Need the next op from the runner's generator.
            if not assigned:
                # Deliver the period's grant: return semantics resume
                # the live generator, callback semantics start afresh.
                if thread.restart_pending or thread.gen is None or thread.gen_exhausted:
                    self._start_generator(thread)
            if runner.gen is None or runner.gen_exhausted:
                if assigned:
                    thread.clear_assignment()
                    continue
                self._mark_done(thread)
                return SliceEnd.DONE
            try:
                op = runner.gen.send(None)
            except StopIteration:
                runner.gen_exhausted = True
                if posted:
                    self._deliver_posts()
                if assigned:
                    runner.state = ThreadState.EXITED
                    thread.clear_assignment()
                    continue
                self._mark_done(thread)
                return SliceEnd.DONE
            except Exception as exc:  # noqa: BLE001 - fault isolation boundary
                outcome = self._crash(thread, runner, assigned, exc)
                if outcome is not None:
                    return outcome
                continue
            if posted:
                self._deliver_posts()  # the generator body posted a waited-on channel

            if op.__class__ is Compute:
                # The common op, without the call into _apply_op (which
                # still handles Compute subclasses).
                runner.pending_compute = op.ticks
            else:
                try:
                    result = self._apply_op(thread, runner, assigned, op)
                except Exception as exc:  # noqa: BLE001 - protocol misuse etc.
                    outcome = self._crash(thread, runner, assigned, exc)
                    if outcome is not None:
                        return outcome
                    continue
                if result is not None:
                    return result
            if self._reschedule:
                return SliceEnd.INTERRUPTED


#: What an admitted task's body does each period.
BODIES = [
    "follower",
    "blocker",
    "postponer",
    "sleeper",
    "overtimer",
    "macroblock",
    "clockreader",
    "poster",
    "meddler",
    "crasher",
    "fidgeter",
    "polite",
    "oblivious",
]
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
    # With a greedy Sporadic Server?  In one run_for or in 10 ms slices
    # (a horizon is a forced stop on a round tick, where op boundaries
    # like to fall)?
    return draw(st.booleans()), draw(st.booleans()), ops


def _definition(rd, name, period_ms, rate, body, channel, n, shared, seen, victim):
    """A one-level task whose body exercises one scheduler transition.

    ``n`` picks a variant of the body; ``shared`` makes the macroblock
    bodies yield one frozen op again and again (the shipped models)
    instead of a fresh instance per op (the models as they were);
    ``seen`` collects what the bodies observe; ``victim`` is the thread
    the meddler quiesces and wakes.
    """
    if body == "follower":
        return single_entry_definition(name, period_ms, rate)
    period = units.ms_to_ticks(period_ms)
    cpu = max(1, round(period * rate))
    chunk = max(1, cpu // 3)
    small = max(1, cpu // 8)
    per_block = max(1, cpu // 200)
    preemption = None

    def macroblocks(total):
        # ``total`` ticks the way a decoder spends a frame.
        count, rest = divmod(total, per_block)
        if shared:
            block = Compute(per_block)
            for _ in range(count):
                yield block
        else:
            for _ in range(count):
                yield Compute(per_block)
        if rest:
            yield Compute(rest)

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

    def macroblock(ctx):
        # Reports done early, returns with grant to spare, returns on
        # the tick that exhausts the grant, or runs on into overtime.
        if n == 0:
            yield from macroblocks(cpu * 4 // 5)
            yield DonePeriod()
        elif n == 1:
            yield from macroblocks(cpu * 4 // 5)
        else:
            yield from macroblocks(cpu)
            if n == 3:
                yield from macroblocks(cpu // 5)

    def clockreader(ctx):
        # The clock a body reads between two ops is the op boundary.
        for _ in range(6):
            yield Compute(small)
            seen.append((name, ctx.now))
        yield DonePeriod()

    def poster(ctx):
        # Posts between two ops: a waiter's wake interrupts right there.
        yield Compute(small)
        channel.post()
        yield Compute(small)
        yield Compute(small)
        yield DonePeriod()

    def meddler(ctx):
        # Resource Manager calls in the task's own context, between two
        # ops: each new grant set asks for a reschedule right there,
        # and the second one (cancelling the victim's pending removal)
        # makes the victim's next boundary preempt this slice again.
        manager = rd.resource_manager
        for i in range(8):
            yield Compute(small)
            if i in (n, n + 4) and victim.tid in manager.admitted_ids():
                if manager.is_quiescent(victim.tid):
                    rd.wake(victim.tid)
                else:
                    rd.enter_quiescent(victim.tid)
        yield DonePeriod()

    def crasher(ctx):
        for _ in range(2 + n):
            yield Compute(small)
        raise RuntimeError(f"{name} fell over")

    def fidgeter(ctx):
        # Computes up to the next round millisecond — where events and
        # horizons fall — then sits on zero-time ops.  When that op
        # boundary is the slice end, eight of them is all the kernel
        # fetches there, so whether the ninth op (DonePeriod, for n=1)
        # happens on that tick is the count being exact.
        ms = units.ms_to_ticks(1)
        yield Compute(small)
        yield Compute(ms - ctx.now % ms)
        for _ in range(7 + n):
            yield InsertIdleCycles(0)
        yield DonePeriod()

    def preemptible(ctx):
        # Overruns (n odd), so a grace slice that crosses the tick the
        # grant runs out on — an op boundary — has ops left for overtime.
        yield from macroblocks(cpu)
        if n % 2:
            yield from macroblocks(cpu // 5)
        yield DonePeriod()

    if body in ("polite", "oblivious"):
        # Controlled preemption, noticing inside / after the 200 us grace.
        preemption = PreemptionConfig(
            units.us_to_ticks(100 if body == "polite" else 500)
        )
    function = {
        "blocker": blocker,
        "postponer": postponer,
        "sleeper": sleeper,
        "overtimer": overtimer,
        "macroblock": macroblock,
        "clockreader": clockreader,
        "poster": poster,
        "meddler": meddler,
        "crasher": crasher,
        "fidgeter": fidgeter,
        "polite": preemptible,
        "oblivious": preemptible,
    }[body]
    return TaskDefinition(
        name=name,
        resource_list=ResourceList([ResourceListEntry(period, cpu, function, name)]),
        preemption=preemption,
        exception_callback=lambda now: seen.append((name, "missed grace", now)),
    )


def run_stream(stream, reference: bool):
    with_server, sliced, ops = stream
    rd = ResourceDistributor(
        machine=MachineConfig.ideal(),
        sim=SimConfig(seed=1),
        sanitize=True,
        sanitize_strict=True,
    )
    if reference:
        # Same object layout, overridden reads: the two runs differ only
        # in how the queue heads and the two timers are found, and in
        # how compute is consumed.
        rd.scheduler.__class__ = FromScratchScheduler
        rd.kernel.__class__ = FromScratchKernel
    names = itertools.count()
    channels = [Channel("c0"), Channel("c1")]
    admitted = []
    seen = []

    def definition(name, period_ms, rate, body, n):
        return _definition(
            rd,
            name,
            period_ms,
            rate,
            body,
            channels[n % 2],
            n,
            not reference,
            seen,
            admitted[0],
        )

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
                            definition(
                                f"t{next(names)}", period_ms, rate_pct / 100.0, body, n
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
    admitted.append(rd.admit(definition("blocker", 15, 0.1, "blocker", 0)))
    # A decoder-shaped task is always there: its last macroblock lands
    # on the tick that exhausts the grant.
    admitted.append(rd.admit(definition("frames", 30, 0.2, "macroblock", 2)))
    for at_ms, kind, period_ms, rate_pct, body, n in ops:
        rd.at(units.ms_to_ticks(at_ms), action(kind, period_ms, rate_pct, body, n))
    for _ in range(13 if sliced else 1):
        rd.run_for(units.ms_to_ticks(10 if sliced else 130))
    return rd, seen


def _accounts(rd):
    return [
        (t.tid, t.used, t.overtime_used, t.completed_at, t.missed_grace_count)
        for t in rd.kernel.threads.values()
    ]


# One stream per assumption of the whole-op run, each found to separate
# the shipped loop from a mutant of it: (1) ``<=`` for the slice test —
# the fidgeter's op ends on a preempting boundary and its ninth op at
# that tick is DonePeriod; (2) ``<=`` for the grant test — a grace slice
# crosses the tick the grant runs out on, with macroblocks left for
# overtime; (3) no ``posted`` re-test — the always-there blocker waits
# on the poster's channel with the earlier deadline; (4) no reschedule
# re-test — the meddler cancels the seed's pending removal in a slice
# whose timer was set while the removal stood; (5) the run recorded
# only on the normal path — generators that return, and raise, mid-run.
@example((False, False, [(1, "admit", 30, 30, "fidgeter", 1)]))
@example((False, False, [(9, "admit", 15, 7, "polite", 1)]))
@example((False, False, [(1, "admit", 10, 20, "poster", 0)]))
@example(
    (
        False,
        False,
        [(13, "admit", 30, 30, "meddler", 0), (16, "post", 10, 20, "follower", 0)],
    )
)
@example(
    (
        False,
        True,
        [(1, "admit", 10, 20, "macroblock", 1), (13, "admit", 15, 10, "crasher", 1)],
    )
)
@given(change_streams())
@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_incremental_heap_matches_from_scratch_sort(stream):
    fast, fast_seen = run_stream(stream, reference=False)
    slow, slow_seen = run_stream(stream, reference=True)
    assert fast.sanitizer.ok and slow.sanitizer.ok
    assert fast.trace.segments == slow.trace.segments
    assert fast.trace.switches == slow.trace.switches
    assert fast.trace.deadlines == slow.trace.deadlines
    assert fast.trace.blocks == slow.trace.blocks
    assert fast.trace.grant_changes == slow.trace.grant_changes
    assert fast.kernel.crashes == slow.kernel.crashes
    assert _accounts(fast) == _accounts(slow)
    assert fast_seen == slow_seen
