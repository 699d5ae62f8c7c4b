"""Property test: the scheduler's lazy heaps are a pure optimization.

The scheduler answers the kernel's per-dispatch questions — the
TimeRemaining head, the OvertimeRequested head, the next fresh
allocation that ends unallocated time, the earliest boundary that
preempts a running grant (timer rule 2) — from lazy min-heaps fed by
period-open, wake and overtime-request events, and the kernel wakes
blocked threads from per-channel queues fed by ``Channel.post``.  The
from-scratch reference (``repro.fuzz.reference``, which the
differential fuzzer runs too) answers the same questions the way the
scheduler and kernel used to: scan every periodic thread, apply the
eligibility predicate, take the (deadline, tid) minimum; walk every
blocked thread and try its channel; build every grant set from
scratch.  Both must produce the
*identical* run for any stream of admissions, exits, quiescence,
wake-ups, channel posts, postponed periods and grants removed from
blocked threads, with a greedy Sporadic Server soaking up the
unallocated time in between.  Both runs execute under the strict
invariant sanitizer, so a divergence in internal state fails loudly
even if the traces happen to agree.

A second property, *granularity is inert*, runs the same streams on
the shipped stack twice: once with every unit of work — the ``Compute``
ops a body yields back to back, with nothing in between — as one op,
and once cut into blocks of drawn sizes.  A ``Compute`` is preemptible
at any tick and charged through ``Kernel._consume`` whatever its
length, so where a body puts its op boundaries may change nothing: not
at a timer stop, not on the tick the grant runs out (a grace slice
outlasts it), not when the body returns or raises.  The bodies aim at
the places an op boundary could matter: one reads the clock between two
units, one posts a waited-on channel, one raises, one sits on zero-time
ops at a slice end, and two are registered for controlled preemption
with a check interval on either side of the grace period.

Two more cut the run into ``run_until`` calls at drawn ticks.  *A
split horizon is inert*: the cut run is the one-call run.  *A held cut
is no decision*: the kernel resumes a slice a call's horizon cut
without ``pick`` and ``timer_for``, so the cut run also makes the
one-call run's audited ``(tid, now)`` decisions and profiled phases,
plus at most one ``kernel.dispatch`` phase per cut.

The last two run the baselines, each a subclass of the RD's Scheduler.
*Every baseline is cut-inert*: all five, SMART in overload and in
underload, on both machines, stepped every drawn number of ticks or cut
at drawn ticks, make the run one call makes.  And *the baselines' heaps
match the retired scans*: with ``EnforcingEdfPolicy``'s old scan-based
pick and timers patched back in under every baseline, the run is the
same.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import AdmissionError, MachineConfig, SimConfig, SporadicServer, units
from repro.baselines import (
    EnforcingEdfPolicy,
    NaiveEdfSystem,
    RateMonotonicSystem,
    ReservesSystem,
    RialtoSystem,
    SmartSystem,
)
from repro.core.distributor import ResourceDistributor
from repro.core.resource_list import ResourceList, ResourceListEntry
from repro.core.threads import (
    ThreadState,
    earlier_time_remaining,
    scan_overtime,
    scan_time_remaining,
)
from repro.fuzz.reference import reference_stack
from repro.obs.pipeline.arena import ArenaBus
from repro.obs.prof import PhaseProfiler
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


def merged(total):
    """A unit of work the way the shipped models state it: one op."""
    yield Compute(total)


def blocks_of(sizes):
    """A unit of work cut into blocks of ``sizes``, cycled, and the
    remainder (the way a decoder used to spend a frame: one op per
    macroblock)."""

    def unit(total):
        spent = 0
        for size in itertools.cycle(sizes):
            if spent + size >= total:
                break
            yield Compute(size)
            spent += size
        yield Compute(total - spent)

    return unit


#: Block patterns: a few tiny blocks (1-tick ones included) and one
#: large enough that a period is hundreds of ops, not hundreds of
#: thousands.
block_sizes = st.builds(
    lambda tiny, big: (*tiny, big),
    st.lists(st.integers(min_value=1, max_value=3), max_size=3),
    st.integers(min_value=700, max_value=60_000),
)


def _definition(rd, name, period_ms, rate, body, channel, n, unit, seen, victim):
    """A one-level task whose body exercises one scheduler transition.

    ``n`` picks a variant of the body; ``unit(total)`` yields the ops of
    ``total`` ticks of uninterrupted work (:func:`merged`, or
    :func:`blocks_of` some sizes); ``seen`` collects what the bodies
    observe; ``victim`` is the thread the meddler quiesces and wakes.
    """
    period = units.ms_to_ticks(period_ms)
    cpu = max(1, round(period * rate))
    chunk = max(1, cpu // 3)
    small = max(1, cpu // 8)
    preemption = None

    def follower(ctx):
        yield from unit(cpu)
        yield DonePeriod()

    def blocker(ctx):
        # Blocks mid-grant; the wake may land in this period or a later one.
        yield from unit(chunk)
        yield Block(channel)
        yield from unit(chunk)
        yield DonePeriod()

    def postponer(ctx):
        yield from unit(chunk)
        yield InsertIdleCycles(units.ms_to_ticks(2))
        yield DonePeriod()

    def sleeper(ctx):
        # Blocks into a postponed period: woken before it starts, the
        # period's start (not its deadline) must bound unallocated time.
        yield from unit(chunk)
        yield InsertIdleCycles(units.ms_to_ticks(3))
        yield Block(channel)
        yield from unit(chunk)
        yield DonePeriod()

    def overtimer(ctx):
        # Runs out of granted time with work left, asks for more, then
        # polls on it as the greedy server does: a unit of work and
        # another request, which the kernel may continue, not re-pick.
        # Between two polls n=1 books an event due inside the stretch,
        # n=2 posts its channel (the blocker's); n=3 is registered for
        # controlled preemption, so a grace slice can meet a poll.
        yield from unit(cpu + chunk)
        yield DonePeriod(overtime=True)
        for i in range(4):
            yield from unit(small)
            if i == 1 and n == 1:
                when = ctx.now + small // 2
                rd.at(when, lambda: seen.append((name, "event", when, ctx.now)))
            elif i == 1 and n == 2:
                channel.post()
            yield DonePeriod(overtime=True)

    def macroblock(ctx):
        # Reports done early, returns with grant to spare, returns on
        # the tick that exhausts the grant, or runs on into overtime.
        if n == 0:
            yield from unit(cpu * 4 // 5)
            yield DonePeriod()
        elif n == 1:
            yield from unit(cpu * 4 // 5)
        elif n == 2:
            yield from unit(cpu)
        else:
            yield from unit(cpu + cpu // 5)

    def clockreader(ctx):
        # The clock a body reads between two units is the op boundary.
        for _ in range(6):
            yield from unit(small)
            seen.append((name, ctx.now))
        yield DonePeriod()

    def poster(ctx):
        # Posts between two units: a waiter's wake interrupts right there.
        yield from unit(small)
        channel.post()
        yield from unit(2 * small)
        yield DonePeriod()

    def meddler(ctx):
        # Resource Manager calls in the task's own context, between two
        # units: each new grant set asks for a reschedule right there,
        # and the second one (cancelling the victim's pending removal)
        # makes the victim's next boundary preempt this slice again.
        manager = rd.resource_manager
        for i in range(8):
            yield from unit(small)
            if i in (n, n + 4) and victim.tid in manager.admitted_ids():
                if manager.usage(victim.tid).quiescent:
                    rd.wake(victim.tid)
                else:
                    rd.enter_quiescent(victim.tid)
        yield DonePeriod()

    def crasher(ctx):
        yield from unit((2 + n) * small)
        raise RuntimeError(f"{name} fell over")

    def fidgeter(ctx):
        # Computes up to the next round millisecond — where events and
        # horizons fall — then sits on zero-time ops.  When that op
        # boundary is the slice end, eight of them is all the kernel
        # fetches there, so whether the ninth op (DonePeriod, for n=1)
        # happens on that tick is the count being exact.
        ms = units.ms_to_ticks(1)
        yield from unit(small)
        yield from unit(ms - ctx.now % ms)
        for _ in range(7 + n):
            yield InsertIdleCycles(0)
        yield DonePeriod()

    def preemptible(ctx):
        # Overruns (n odd), so a grace slice crosses the tick the grant
        # runs out on with work left for overtime.
        yield from unit(cpu + cpu // 5 if n % 2 else cpu)
        yield DonePeriod()

    if body in ("polite", "oblivious") or (body == "overtimer" and n == 3):
        # Controlled preemption, noticing inside / after the 200 us grace.
        preemption = PreemptionConfig(
            units.us_to_ticks(100 if body != "oblivious" else 500)
        )
    function = {
        "follower": follower,
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


def run_stream(
    stream, reference=False, unit=merged, cuts=None, machine=None, prepare=None
):
    """Run ``stream`` to 130 ms: in 10 ms slices or one ``run_for`` as
    the stream says, or — given ``cuts`` — in one ``run_until`` per
    cut, then one to the horizon.  ``prepare(rd)`` runs before anything
    is admitted."""
    with_server, sliced, ops = stream
    rd = ResourceDistributor(
        machine=machine or MachineConfig.ideal(),
        sim=SimConfig(seed=1),
        sanitize=True,
        sanitize_strict=True,
    )
    if reference:
        reference_stack(rd)
    rd.kernel.obs = ArenaBus()  # for the grace periods (see assert_same_run)
    if prepare is not None:
        prepare(rd)
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
            unit,
            seen,
            admitted[0] if admitted else None,
        )

    if with_server:

        def job(ctx):
            for _ in range(40):
                yield Compute(units.us_to_ticks(200))
                # A sporadic task pausing hands the rest of its slice
                # back to the server: not the server's own poll.
                yield DonePeriod(overtime=True)
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
                quiescent = [t for t in live if manager.usage(t.tid).quiescent]
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

    admitted.append(rd.admit(definition("seed", 10, 0.2, "follower", 0)))
    admitted.append(rd.admit(definition("blocker", 15, 0.1, "blocker", 0)))
    # A decoder-shaped task is always there: its frame ends on the tick
    # that exhausts the grant.
    admitted.append(rd.admit(definition("frames", 30, 0.2, "macroblock", 2)))
    for at_ms, kind, period_ms, rate_pct, body, n in ops:
        rd.at(units.ms_to_ticks(at_ms), action(kind, period_ms, rate_pct, body, n))
    if cuts is not None:
        for cut in sorted(set(cuts)):
            rd.run_until(cut)
        rd.run_until(HORIZON)
        return rd, seen
    for _ in range(13 if sliced else 1):
        rd.run_for(units.ms_to_ticks(10 if sliced else 130))
    return rd, seen


HORIZON = units.ms_to_ticks(130)


def _accounts(kernel):
    return [
        (
            t.tid,
            t.used,
            t.overtime_used,
            t.completed_at,
            t.total_used_ticks,
            t.total_overtime_ticks,
            t.missed_grace_count,
        )
        for t in kernel.threads.values()
    ]


def _graces(kernel):
    """The controlled-preemption grace periods an observed kernel
    settled, as ``(time, tid, honoured)``."""
    return [
        (e.time, e.thread_id, e.honoured)
        for e in kernel.obs.materialize()
        if e.type == "grace-period"
    ]


def assert_same_run(a, b):
    """Two kernels went through the identical run (grace periods
    included, when both are observed)."""
    assert a.trace.segments == b.trace.segments
    assert a.trace.switches == b.trace.switches
    assert a.trace.deadlines == b.trace.deadlines
    assert a.trace.blocks == b.trace.blocks
    assert a.trace.grant_changes == b.trace.grant_changes
    assert a.crashes == b.crashes
    assert _accounts(a) == _accounts(b)
    if a.obs and b.obs:
        assert _graces(a) == _graces(b)


# The kernel keeps a slice going across a poll — DonePeriod(overtime=True)
# from a thread picked from OvertimeRequested — only while nothing the
# re-pick reads can have moved; the reference re-picks after every poll.
# One stream per guard, each found to separate the kernel from the
# mutant without that guard: (1) an admit event inside the server's
# overtime stretch, and (2) a postponer's delayed start, bound the
# slice's stop; (3) an exit's removal rolls over mid-stretch, at a
# boundary that is no timer stop; (4) the overtimer books an event due
# inside its own stretch; (5) it posts the channel the blocker waits on
# right before a poll; (6) a post wakes the server's job, whose pause is
# not the server's poll; (7) an overtimer registered for controlled
# preemption polls in a grace slice; (8) 10 ms run_for horizons fall
# mid-poll.  The server's run of polls is charged in one step up to a
# limit, ``stop`` or the next rollover; one stream per bound, each found
# to separate the kernel from the mutant that gets that bound wrong:
# (9) batches stopped by ``stop`` short of a whole poll (a mutant
# bounded by the rollover alone diverges); (10) batches stopped by the
# next rollover short of a whole poll (bounded by ``stop`` alone); (11)
# a poll that ends exactly at the limit (a batch that takes it in too);
# (12) a post at a poll boundary that makes the sporadic ``job`` ready.
@example((True, False, [(87, "admit", 15, 20, "follower", 0)]))
@example((True, False, [(1, "admit", 10, 20, "postponer", 0)]))
@example((True, False, [(5, "exit", 10, 20, "follower", 0)]))
@example((False, False, [(1, "admit", 10, 20, "overtimer", 1)]))
@example((False, False, [(1, "admit", 10, 20, "overtimer", 2)]))
@example((True, False, [(87, "post", 10, 20, "follower", 1)]))
@example((False, False, [(1, "admit", 5, 20, "overtimer", 3)]))
@example((True, True, [(87, "post", 10, 20, "follower", 1)]))
@example(
    (
        True,
        False,
        [(89, "drop-blocked", 30, 10, "crasher", 3), (39, "admit", 5, 11, "postponer", 3)],
    )
)
@example((True, False, [(100, "admit", 15, 15, "crasher", 2)]))
@example((True, False, [(80, "admit", 10, 5, "follower", 1)]))
@example((True, False, [(49, "post", 10, 15, "fidgeter", 3)]))
# A sliced run's cut at 20 ms inside an overlap (the seed's boundary
# ties the blocker's deadline): the kernel holds the blocker's slice as
# one call runs it, the reference re-picks the seed there.
@example(
    (False, True, [(1, "admit", 5, 5, "follower", 0)] * 3 + [(1, "admit", 10, 7, "poster", 0)])
)
@given(change_streams())
@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_incremental_heap_matches_from_scratch_sort(stream):
    """The shipped stack's run, in one call or 10 ms slices, is the
    reference's one-call run (the reference re-picks at every cut)."""
    with_server, _, ops = stream
    fast, fast_seen = run_stream(stream)
    slow, slow_seen = run_stream((with_server, False, ops), reference=True)
    assert fast.sanitizer.ok and slow.sanitizer.ok
    assert_same_run(fast.kernel, slow.kernel)
    assert fast_seen == slow_seen


# One stream per place an op boundary could matter, each found to
# separate the kernel from a mutant of it: (1) the fidgeter's unit ends
# on a preempting boundary and its ninth op at that tick is DonePeriod;
# (2) a grace slice crosses the tick the grant runs out on, with work
# left for overtime — charged granted to that tick and overtime after it
# only because ``_consume`` splits the run there; (3) the always-there
# blocker waits on the poster's channel with the earlier deadline;
# (4) the meddler cancels the seed's pending removal in a slice whose
# timer was set while the removal stood; (5) generators that return,
# and raise, at the end of a unit.
@example((False, False, [(1, "admit", 30, 30, "fidgeter", 1)]), (1, 811))
@example((False, False, [(9, "admit", 15, 7, "polite", 1)]), (14,))
@example((False, False, [(1, "admit", 10, 20, "poster", 0)]), (1, 1, 700))
@example(
    (
        False,
        False,
        [(13, "admit", 30, 30, "meddler", 0), (16, "post", 10, 20, "follower", 0)],
    ),
    (2_025,),
)
@example(
    (
        False,
        True,
        [(1, "admit", 10, 20, "macroblock", 1), (13, "admit", 15, 10, "crasher", 1)],
    ),
    (3, 4_999),
)
@given(change_streams(), block_sizes)
@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_granularity_is_inert(stream, sizes):
    whole, whole_seen = run_stream(stream)
    cut, cut_seen = run_stream(stream, unit=blocks_of(sizes))
    assert whole.sanitizer.ok and cut.sanitizer.ok
    assert_same_run(whole.kernel, cut.kernel)
    assert whole_seen == cut_seen


def run_fair_share(unit):
    """SMART in overload: 1 ms quanta bounded by the deadline, not by
    the grant, so a slice runs across the grant's last tick."""
    system = SmartSystem(machine=MachineConfig.ideal(), sim=SimConfig(seed=1))
    seen = []
    for i, (period_ms, rate, body, n) in enumerate(
        [
            (10, 0.45, "follower", 0),
            (15, 0.3, "overtimer", 0),
            (30, 0.25, "macroblock", 3),
            (30, 0.1, "macroblock", 1),  # returns at the end of a unit
            (15, 0.1, "crasher", 1),  # raises at the end of one
            (10, 0.1, "clockreader", 0),
        ]
    ):
        system.admit(
            _definition(None, f"t{i}", period_ms, rate, body, None, n, unit, seen, None)
        )
    assert system.policy.overloaded(0)
    system.run_for(units.ms_to_ticks(90))
    return system.kernel, seen


@given(block_sizes)
@example((1, 1, 700))
@settings(max_examples=15, deadline=None)
def test_granularity_is_inert_under_a_baseline_timer(sizes):
    whole, whole_seen = run_fair_share(merged)
    cut, cut_seen = run_fair_share(blocks_of(sizes))
    assert any(t.total_overtime_ticks for t in whole.threads.values())
    assert_same_run(whole, cut)
    assert whole_seen == cut_seen


#: Where a caller stops a kernel: on a round millisecond — where the
#: streams' events, admissions and period boundaries fall — just past
#: one, inside the grace slice a preempting boundary there may grant,
#: or on any tick.
cut_times = st.lists(
    st.one_of(
        st.integers(min_value=1, max_value=129).map(units.ms_to_ticks),
        st.builds(
            lambda at_ms, after_us: units.ms_to_ticks(at_ms) + units.us_to_ticks(after_us),
            st.integers(min_value=1, max_value=129),
            st.integers(min_value=1, max_value=250),
        ),
        st.integers(min_value=1, max_value=HORIZON - 1),
    ),
    max_size=12,
)


# One case per way a cut used to show, each failing without its fix:
# (1) an exited thread blocked across its boundary has its grant
# removal stamped at the boundary, not when a late rollover finds it;
# (2) an exit and (3) a wake due on a cut that is also a boundary act
# before that boundary closes, as they do when no call ends there;
# (4) a preempting boundary on a cut still interrupts a thread under
# controlled preemption, which then gets its grace period.  And one the
# strict sanitizer caught in a single call on a machine with switch
# costs: (5) a postponed period that begins inside a switch-cost window
# makes the pick stale, like a period that opens there.  And the grace
# slice as a slice: (6) a cut inside the 200 us grace slice a task that
# cannot notice in time is granted at 40 ms is held, and its miss, its
# exception callback and its grace period are settled where the slice
# ends, as in one call.
@example(
    (
        False,
        False,
        [
            (1, "admit", 15, 5, "oblivious", 1),
            (1, "admit", 5, 5, "follower", 0),
            (1, "admit", 5, 11, "follower", 0),
        ],
    ),
    [units.ms_to_ticks(40) + units.us_to_ticks(50)],
    True,
    False,
)
@example(
    (
        False,
        False,
        [(3, "drop-blocked", 5, 5, "follower", 0)]
        + [(1, "admit", 5, 5, "follower", 0)] * 3,
    ),
    [units.ms_to_ticks(15)],
    False,
    False,
)
@example(
    (False, False, [(15, "exit", 10, 20, "follower", 0), (5, "quiesce", 10, 20, "follower", 0)]),
    [units.ms_to_ticks(15)],
    False,
    False,
)
@example(
    (False, False, [(15, "wake", 10, 20, "follower", 0), (5, "quiesce", 10, 20, "follower", 0)]),
    [units.ms_to_ticks(15)],
    True,
    False,
)
@example(
    (
        False,
        False,
        [
            (1, "admit", 15, 5, "polite", 0),
            (1, "admit", 5, 5, "follower", 0),
            (1, "admit", 5, 11, "follower", 0),
        ],
    ),
    [units.ms_to_ticks(100)],
    False,
    False,
)
@example(
    (
        False,
        False,
        [(30, "admit", 5, 5, "postponer", 0)] + [(1, "admit", 5, 5, "blocker", 0)] * 2,
    ),
    [],
    False,
    True,
)
@given(change_streams(), cut_times, st.booleans(), st.booleans())
@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_a_split_horizon_is_inert(stream, cuts, reference, calibrated):
    """The kernel's run with the horizon cut into many calls is the run
    of one ``run_until(h)``, on the kernel or on the reference kernel
    (which re-picks at every cut, so only its one-call run is the
    yardstick), on either machine: its trace, deadlines, accounts,
    missed grace periods, exception callbacks and grace periods."""
    machine = MachineConfig() if calibrated else MachineConfig.ideal()
    whole, whole_seen = run_stream(stream, reference, cuts=[], machine=machine)
    split, split_seen = run_stream(stream, cuts=cuts, machine=machine)
    assert whole.sanitizer.ok and split.sanitizer.ok
    assert_same_run(whole.kernel, split.kernel)
    assert whole_seen == split_seen


@pytest.mark.parametrize("reference", [False, True], ids=["kernel", "reference"])
def test_a_horizon_tied_preemption_holds_its_grace_slice(reference):
    """A preempting boundary on the horizon is still an interrupt: the
    thread under controlled preemption gets its grace slice, and like
    any slice the horizon stops it — ``run_until(h)`` returns at ``h``
    with the grace slice held, and the next call runs it first."""
    rd = ResourceDistributor(
        machine=MachineConfig.ideal(),
        sim=SimConfig(seed=1),
        sanitize=True,
        sanitize_strict=True,
    )
    if reference:
        reference_stack(rd)
    seen = []
    channel = Channel("c")
    # The polite task runs from 0.5 ms; the follower's period opening at
    # 5 ms has the earlier deadline and preempts it there.
    polite = rd.admit(
        _definition(rd, "polite", 20, 0.8, "polite", channel, 1, merged, seen, None)
    )
    follower = rd.admit(
        _definition(rd, "follower", 5, 0.1, "follower", channel, 0, merged, seen, None)
    )
    boundary = units.ms_to_ticks(5)
    notice = units.us_to_ticks(100)
    rd.run_until(boundary)
    assert rd.kernel.now == boundary and polite.grace_pending
    rd.run_for(units.ms_to_ticks(1))
    assert rd.kernel.now == boundary + units.ms_to_ticks(1)
    assert not polite.grace_pending
    assert [
        (s.thread_id, s.start, s.end)
        for s in rd.kernel.trace.segments
        if s.end > boundary - units.ms_to_ticks(1)
    ][:3] == [
        (polite.tid, units.us_to_ticks(500), boundary + notice),
        (follower.tid, boundary + notice, boundary + notice + units.us_to_ticks(500)),
        (polite.tid, boundary + notice + units.us_to_ticks(500), boundary + units.ms_to_ticks(1)),
    ]
    assert rd.sanitizer.ok and not seen


def watched(audits, prof):
    """A ``run_stream`` preparation: attach ``prof`` and note every
    audited decision's ``(tid, now)`` in ``audits``."""

    def prepare(rd):
        rd.attach_prof(prof)
        on_pick = rd.sanitizer.on_pick

        def audited(thread, now):
            audits.append((thread.tid, now))
            on_pick(thread, now)

        rd.sanitizer.on_pick = audited

    return prepare


def assert_cut_is_no_decision(run, cuts):
    """``run(cuts, prepare)`` cut at ``cuts`` and run in one call make
    the same run and the same audited decisions; the cut run's phases
    are the one-call run's plus at most one ``kernel.dispatch`` per cut
    (the loop iteration a held resume is)."""
    books = []
    for at in (cuts, []):
        audits, prof = [], PhaseProfiler()
        rd, seen = run(at, watched(audits, prof))
        assert rd.sanitizer.ok
        books.append((rd.kernel, seen, audits, dict(prof.counts)))
    (split, split_seen, split_audits, split_counts), whole_books = books
    whole, whole_seen, whole_audits, whole_counts = whole_books
    assert_same_run(split, whole)
    assert split_seen == whole_seen
    assert split_audits == whole_audits
    resumes = split_counts.pop("kernel.dispatch", 0) - whole_counts.pop(
        "kernel.dispatch", 0
    )
    assert 0 <= resumes <= len(set(cuts))
    assert split_counts == whole_counts


# Found by the property against a scratch kernel whose resume ignored
# ``_reschedule``: admissions due on the cut that ends a held Idle slice.
@example(
    (
        False,
        False,
        [(13, "admit", 5, 5, "follower", 0)] + [(1, "admit", 5, 5, "follower", 0)] * 4,
    ),
    [units.ms_to_ticks(13)],
    False,
)
@given(change_streams(), cut_times, st.booleans())
@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_a_held_cut_is_no_decision(stream, cuts, calibrated):
    """A slice a call's horizon cut resumes in the next call without
    ``pick`` and ``timer_for``, unaudited: against one call, the same
    run, the same audited decisions and the same profiled phases but
    the resumes', on either machine."""
    machine = MachineConfig() if calibrated else MachineConfig.ideal()
    assert_cut_is_no_decision(
        lambda at, prepare: run_stream(stream, cuts=at, machine=machine, prepare=prepare),
        cuts,
    )


def test_a_postponed_start_the_timer_ran_past_holds():
    """A postponed period that begins after the held slice's timer was
    set is a boundary the timer judged: here it ties the running
    thread's deadline with the lower tid, which rule (2) does not
    preempt for, so the cut at 13 ms resumes the running thread, as one
    call runs it to its grant's end.  A resume that read the postponed
    starts, as one once did, handed the CPU over there."""
    ms = units.ms_to_ticks

    def postponer(ctx):
        yield Compute(ms(1))
        yield InsertIdleCycles(ms(2))  # its second period: 12 to 22 ms
        yield DonePeriod()

    def worker(ctx):
        yield Compute(ms(15))  # deadline 22 ms, no timer stop before 16
        yield DonePeriod()

    def run(cuts, prepare):
        rd = ResourceDistributor(
            machine=MachineConfig.ideal(),
            sim=SimConfig(seed=0),
            sanitize=True,
            sanitize_strict=True,
        )
        prepare(rd)
        for name, period, cpu, body in (("a", 10, 1, postponer), ("b", 22, 15, worker)):
            rd.admit(
                TaskDefinition(
                    name=name,
                    resource_list=ResourceList(
                        [ResourceListEntry(ms(period), ms(cpu), body, name)]
                    ),
                )
            )
        for cut in cuts:
            rd.run_until(ms(cut))
        rd.run_until(ms(40))
        return rd, []

    assert_cut_is_no_decision(run, [11, 13])
    rd, _ = run([11, 13], watched([], PhaseProfiler()))
    assert [(s.thread_id, s.start, s.end) for s in rd.trace.segments[:3]] == [
        (1, 0, ms(1)),
        (2, ms(1), ms(16)),
        (1, ms(16), ms(17)),
    ]


#: A cut inside an overlap.  The timer may let a slice run past a
#: boundary a pick would act on — here the small-overlap override
#: finishes a nearly done grant across the boundary at 100 ms (rule (2)
#: likewise does not preempt on an equal deadline, which the pick breaks
#: by tid).  A kernel that held a cut slice only while no rollover scan
#: had run since its timer was set re-picked at a ``run_until`` ending
#: inside that overlap, handing the CPU over where one call does not.
OVERRIDE_CUT = (
    (
        True,
        False,
        [(32, "admit", 5, 18, "follower", 0), (37, "admit", 5, 29, "follower", 0)]
        + [(58, "admit", 5, 26, "follower", 0), (1, "admit", 5, 24, "poster", 0)]
        + [(1, "admit", 5, rate, "follower", 0) for rate in (26, 19, 22)]
        + [(1, "wake", 5, 5, "follower", 0)] * 2,
    ),
    [units.ms_to_ticks(100)],
)


#: A Resource Manager call a body makes in its own slice.  A kernel that
#: left the boundaries the slice ran past open until the slice ended
#: landed the call's change on a period that had already ended, where a
#: cut in between closed them first.  Found by the split-horizon
#: property when its streams first drew meddlers.
MEDDLER_CUT = (
    (
        False,
        False,
        [
            (1, "admit", 15, 5, "meddler", 0),
            (1, "admit", 10, 8, "follower", 0),
            (1, "admit", 5, 5, "follower", 0),
        ],
    ),
    [units.ms_to_ticks(100)],
)


@pytest.mark.parametrize(
    "case, machine",
    [(OVERRIDE_CUT, MachineConfig()), (MEDDLER_CUT, MachineConfig.ideal())],
    ids=["overridden-overlap", "meddler"],
)
def test_a_cut_that_is_not_yet_inert(case, machine):
    stream, cuts = case
    whole, _ = run_stream(stream, cuts=[], machine=machine)
    split, _ = run_stream(stream, cuts=cuts, machine=machine)
    assert_same_run(whole.kernel, split.kernel)


#: Every baseline, as its system class.  SMART is drawn in overload
#: (its fair-share quanta) and in underload (the RD's EDF).
BASELINES = {
    "reserves": ReservesSystem,
    "smart": SmartSystem,
    "rialto": RialtoSystem,
    "naive-edf": NaiveEdfSystem,
    "rate-monotonic": RateMonotonicSystem,
}
#: The bodies a baseline can run: the meddler calls a Resource Manager.
BASELINE_BODIES = [body for body in BODIES if body != "meddler"]
#: SMART in overload: 3 tasks at 50/45/40 % of the CPU.
OVERLOAD = [(10, 50, "follower", 0), (15, 45, "overtimer", 0), (30, 40, "macroblock", 3)]


@st.composite
def baseline_runs(draw):
    """A baseline, its task set, posts to the blockers' channels, and
    the machine; SMART also draws overload or underload."""
    name = draw(st.sampled_from(sorted(BASELINES)))
    overload = name == "smart" and draw(st.booleans())
    tasks = draw(
        st.lists(
            st.tuples(
                st.sampled_from([5, 10, 15, 30]),  # period, ms
                st.integers(min_value=5, max_value=30),  # rate, %
                st.sampled_from(BASELINE_BODIES),
                st.integers(min_value=0, max_value=3),
            ),
            min_size=1,
            max_size=5,
        )
    )
    posts = draw(st.lists(st.integers(min_value=1, max_value=129), max_size=6))
    return name, (OVERLOAD + tasks if overload else tasks), posts, draw(st.booleans())


def run_baseline(case, step=None, cuts=None):
    """Run ``case`` to 130 ms in one call, in ``run_for(step)`` calls, or
    in one ``run_until`` per cut and one to the horizon."""
    name, tasks, posts, calibrated = case
    system = BASELINES[name](
        machine=MachineConfig() if calibrated else MachineConfig.ideal(),
        sim=SimConfig(seed=1),
    )
    system.kernel.obs = ArenaBus()  # for the grace periods
    channels = [Channel("c0"), Channel("c1")]
    seen = []
    for i, (period_ms, rate, body, n) in enumerate(tasks):
        definition = _definition(
            system, f"t{i}", period_ms, rate / 100.0, body, channels[n % 2], n,
            merged, seen, None,
        )
        try:
            system.admit(definition)
        except AdmissionError:
            pass
    for i, at_ms in enumerate(posts):
        system.at(units.ms_to_ticks(at_ms), channels[i % 2].post)
    if step is not None:
        while system.now < HORIZON:
            system.run_for(min(step, HORIZON - system.now))
    else:
        for cut in sorted(set(cuts or [])):
            system.run_until(cut)
        system.run_until(HORIZON)
    return system, seen


# The failure this property was written for: SMART in overload, stepped
# every 0.37 ms, re-picked at every cut and made 2.8 times the switches
# of one call when the kernel held a slice only for the RD's Scheduler.
@example(("smart", OVERLOAD, [], False), units.us_to_ticks(370), None)
# A cut inside the grace slice the boundary at 5 ms grants a task that
# cannot notice in time.
@example(
    (
        "naive-edf",
        [(30, 30, "oblivious", 1), (5, 10, "follower", 0), (10, 20, "follower", 0)],
        [],
        False,
    ),
    None,
    [units.ms_to_ticks(5) + units.us_to_ticks(50)],
)
@given(
    baseline_runs(),
    st.one_of(st.none(), st.integers(min_value=1_000, max_value=units.ms_to_ticks(7))),
    cut_times,
)
@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_every_baseline_is_cut_inert(case, step, cuts):
    """A baseline gets the kernel's hold rule as the RD's Scheduler
    does: its run stepped in many calls — every ``step`` ticks, or at
    drawn cuts, grace slices included — is the run one call makes."""
    whole, whole_seen = run_baseline(case, cuts=[])
    split, split_seen = run_baseline(case, step=step, cuts=cuts)
    assert_same_run(whole.kernel, split.kernel)
    assert whole_seen == split_seen


# -- the retired scans of EnforcingEdfPolicy, the reference its heaps are
# held to: the policy read every periodic thread on every pick and timer.


def _retired_boundary(thread, now):
    if thread.state is not ThreadState.ACTIVE or not thread.in_period:
        return None
    return thread.period_start if thread.period_start > now else thread.deadline


def _retired_pick(self, now):
    remaining = scan_time_remaining(self.kernel.periodic_threads(), now)
    if remaining:
        return remaining[0]
    overtime = scan_overtime(self.kernel.periodic_threads(), now)
    if overtime:
        return overtime[0]
    return self.kernel.idle


def _retired_timer_for(self, thread, now):
    if thread.is_idle or not thread.eligible_time_remaining(now):
        return self._unallocated_timer(thread, now)
    grant_end = now + thread.remaining
    limit = min(grant_end, thread.deadline)
    boundary = self._earliest_preempting_boundary(thread, now, limit)
    return boundary if boundary is not None else limit


def _retired_preemption_imminent(self, thread, now):
    return earlier_time_remaining(thread, self.kernel.periodic_threads(), now)


def _retired_unallocated_timer(self, thread, now):
    stop = units.INFINITE
    if not thread.is_idle and thread.in_period:
        stop = thread.deadline
    for other in self.kernel.periodic_threads():
        boundary = _retired_boundary(other, now)
        if boundary is not None and now < boundary < stop:
            stop = boundary
    return stop


def _retired_earliest_preempting_boundary(self, thread, now, limit):
    best = None
    for other in self.kernel.periodic_threads():
        if other is thread:
            continue
        boundary = _retired_boundary(other, now)
        if boundary is None or boundary <= now or boundary >= limit:
            continue
        next_deadline = (
            other.deadline
            if other.period_start > now
            else boundary + (other.grant.period if other.grant else units.INFINITE)
        )
        if next_deadline >= thread.deadline:
            continue
        if best is None or boundary < best:
            best = boundary
    return best


RETIRED_SCANS = {
    "pick": _retired_pick,
    "timer_for": _retired_timer_for,
    "preemption_imminent": _retired_preemption_imminent,
    "_unallocated_timer": _retired_unallocated_timer,
    "_earliest_preempting_boundary": _retired_earliest_preempting_boundary,
}


@given(baseline_runs())
@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_baseline_heaps_match_the_retired_scans(case):
    """Every baseline picks and sets timers through the RD's lazy heaps
    where it used to scan: with ``EnforcingEdfPolicy``'s retired scans
    patched back in under it (what SMART, naive EDF and Rate-Monotonic
    call through ``super()`` or the timer helpers included), the run is
    the same."""
    heaps, heaps_seen = run_baseline(case, cuts=[])
    with pytest.MonkeyPatch.context() as patch:
        for name, method in RETIRED_SCANS.items():
            patch.setattr(EnforcingEdfPolicy, name, method, raising=False)
        scans, scans_seen = run_baseline(case, cuts=[])
    assert_same_run(heaps.kernel, scans.kernel)
    assert heaps_seen == scans_seen
