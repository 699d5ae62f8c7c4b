"""The simulation kernel: dispatching, accounting, and period rollover.

The kernel plays the role of MMLite's low-level thread machinery: it
drives task generators, charges consumed CPU against grants, applies
context-switch costs, performs period rollover, and delivers grants with
callback/return semantics.  *Which* thread runs and *when* the timer
interrupt fires are delegated to a scheduler policy object — the ETI
Resource Distributor's EDF scheduler (``repro.core.scheduler``) or one
of the baseline schedulers (``repro.baselines``).

The policy interface (duck-typed, all six required; :meth:`Kernel.bind_policy`
refuses a policy that lacks one) is::

    pick(now) -> SimThread                 # never None; idle thread at worst
    timer_for(thread, now) -> int          # absolute tick of next interrupt
    preemption_imminent(thread, now) -> bool   # for grace-period decisions
    on_period_open(thread)       # a period just opened (first or rollover)
    on_wake(thread)              # a blocked thread became ACTIVE again
    on_overtime_request(thread)  # ran out of granted time, or DonePeriod(overtime=True)

Through the three hooks the policy keeps its queues current from events
instead of walking the thread population on every dispatch, so every
policy gets the one hold rule (see :meth:`Kernel.run_until`): a slice
goes on without a pick across a poll or a caller's cut.
"""

from __future__ import annotations

import enum
from collections import deque
from heapq import heapify, heappop, heappush
from operator import itemgetter
from typing import Callable, Iterable

from repro import units
from repro.config import MachineConfig, SimConfig
from repro.core.grants import Grant, GrantDelivery
from repro.core.threads import (
    STATE_ACTIVE,
    STATE_BLOCKED,
    STATE_EXITED,
    STATE_QUIESCENT,
    THREAD_IDLE,
    THREAD_PERIODIC,
    THREAD_SPORADIC,
    SimThread,
)
from repro.errors import SchedulerError, SimulationError, TaskError
from repro.machine.cpu import ContextSwitchModel
from repro.machine.exclusive import ExclusiveUnitRegistry
from repro.machine.interrupts import InterruptReserve
from repro.obs.events import (
    GraceEvent,
    GrantChangeEvent,
)
from repro.sim.clock import SimClock
from repro.sim.events import EventQueue
from repro.sim.rng import RngRegistry
from repro.sim.trace import (
    SEGMENT_ASSIGNED,
    SEGMENT_GRANTED,
    SEGMENT_IDLE,
    SEGMENT_OVERTIME,
    SEGMENT_SYSTEM,
    SWITCH_INVOLUNTARY,
    SWITCH_VOLUNTARY,
    BlockRecord,
    GrantChangeRecord,
    SwitchKind,
    TraceRecorder,
)
from repro.tasks.base import (
    SEMANTICS_CALLBACK,
    AssignGrant,
    Block,
    Compute,
    DonePeriod,
    InsertIdleCycles,
    Poll,
    TaskDefinition,
)
from repro.tasks.channels import Channel


class SliceEnd(enum.Enum):
    """How a dispatch slice ended."""

    FORCED = "forced"  # ran to the stop time (timer interrupt)
    DONE = "done"  # thread declared itself done for the period
    BLOCKED = "blocked"  # thread blocked on a channel
    INTERRUPTED = "interrupted"  # a wake/notification requires a re-pick


# The members, bound once at import (see ``repro.core.threads``).
SLICE_FORCED = SliceEnd.FORCED
SLICE_DONE = SliceEnd.DONE
SLICE_BLOCKED = SliceEnd.BLOCKED
SLICE_INTERRUPTED = SliceEnd.INTERRUPTED


#: The policy interface :meth:`Kernel.bind_policy` requires.
POLICY_METHODS = ("pick", "timer_for", "preemption_imminent",
                  "on_period_open", "on_wake", "on_overtime_request")


class Kernel:
    """Owns simulated time, threads, and the dispatch loop."""

    IDLE_TID = 0

    def __init__(self, machine: MachineConfig, sim: SimConfig) -> None:
        self.machine = machine
        self.sim = sim
        self.clock = SimClock()
        self.events = EventQueue()
        self.trace = TraceRecorder()
        self.rngs = RngRegistry(sim.seed)
        self.switch_model = ContextSwitchModel(
            machine.switch_costs, self.rngs.stream("context-switch")
        )
        self.reserve = InterruptReserve(machine.interrupt_reserve)
        self.exclusive = ExclusiveUnitRegistry(machine.exclusive_units)

        self.threads: dict[int, SimThread] = {}
        #: Periodic threads in creation order — the rollover scan runs
        #: several times per dispatch-loop iteration and must not pay
        #: for filtering sporadic/idle threads out of ``threads`` each
        #: time.  A thread is swept out when it exits (see
        #: :meth:`note_periodic_exit`), so a long-lived system with task
        #: churn — the serving layer admits and withdraws tasks forever
        #: — keeps every scan proportional to *live* threads, not to
        #: every thread ever admitted.  ``threads`` itself never shrinks:
        #: tid lookups and trace exports still see retired names.
        self._periodic: list[SimThread] = []
        #: Earliest upcoming period boundary or postponed period start,
        #: or 0 when unknown — lets the rollover scan (run several times
        #: per dispatch-loop iteration) return O(1) when none is due,
        #: and tells a switch that crossed one.
        self._next_rollover = 0
        self._next_tid = self.IDLE_TID + 1
        self.idle = SimThread(self.IDLE_TID, "Idle", THREAD_IDLE)
        self.policy = None  # bound by the scheduler policy
        #: The event queue's heap, peeked by the dispatch loop so an
        #: empty or not-yet-due head costs no call into the queue.
        self._event_heap = self.events._heap

        self._current: SimThread | None = None
        #: The slice to run next without a pick — one the last call's
        #: horizon cut, or a grace slice — as (thread, timer), or None.
        self._held: tuple[SimThread, int] | None = None
        self._pending_switch_kind = SWITCH_VOLUNTARY
        #: The hold rule's one input (see :meth:`run_until`): a
        #: scheduling event has fired since the last pick.
        self._reschedule = False
        #: The running slice's stop as one call sees it (the horizon
        #: aside), 0 between slices: a booking a body makes before it is
        #: a scheduling event (see :meth:`at`).
        self._stop = 0
        self._no_progress = 0
        #: Blocked threads per channel, as (block sequence, thread) in
        #: the order they blocked (FIFO wake fairness).  Entries whose
        #: thread left BLOCKED some other way are dropped when met.
        self._waiters: dict[Channel, deque[tuple[int, SimThread]]] = {}
        self._block_seq = 0
        #: Channels posted to while one of our threads was blocked on
        #: them, awaiting the next delivery point.  Channels append to
        #: this list directly (``_note_post`` is their ``waker``), so
        #: its identity must never change.
        self._posted: list[Channel] = []
        self._note_post = self._posted.append
        #: Called when application code raises: (thread, exception).
        #: The distributor wires this to Resource Manager cleanup so a
        #: crashing task releases its admission instead of wedging the
        #: machine.  Crashes never propagate out of the dispatch loop.
        self.crash_handler = None
        self.crashes: list[tuple[int, int, str]] = []  # (time, tid, repr)
        #: Optional runtime invariant sanitizer
        #: (:class:`repro.metrics.sanitizer.InvariantSanitizer`); when
        #: set, the dispatch loop reports every scheduling decision and
        #: period close to it.
        self.sanitizer = None
        #: Optional telemetry bus (an ``ObsSession``'s bus or one of its
        #: node scopes); None means uninstrumented — every hook
        #: site costs one attribute read and a falsy branch.
        self.obs = None
        #: Optional phase profiler (duck-typed ``begin``/``end``; wired
        #: by the distributor, never imported here — the same contract
        #: as ``obs``: one attribute read and a falsy branch when off.
        self.prof = None

    # -- properties ----------------------------------------------------------

    @property
    def now(self) -> int:
        return self.clock.now

    def bind_policy(self, policy) -> None:
        if self.policy is not None:
            raise SimulationError("kernel already has a scheduler policy")
        missing = [name for name in POLICY_METHODS if not hasattr(policy, name)]
        if missing:
            raise SchedulerError(
                f"{type(policy).__name__} is no scheduler policy: it lacks "
                + ", ".join(missing)
            )
        self.policy = policy

    # -- thread management ---------------------------------------------------

    def create_periodic(self, definition: TaskDefinition, policy_id: int) -> SimThread:
        """Register a periodic thread (no grant yet; the Resource Manager
        supplies the first grant via the scheduler's activation path)."""
        thread = SimThread(
            tid=self._alloc_tid(),
            name=definition.name,
            kind=THREAD_PERIODIC,
            definition=definition,
            policy_id=policy_id,
        )
        thread.ctx._kernel = self
        thread.state = (
            STATE_QUIESCENT if definition.start_quiescent else STATE_ACTIVE
        )
        self.threads[thread.tid] = thread
        self._periodic.append(thread)
        return thread

    def create_sporadic(self, name: str, function) -> SimThread:
        """Register a sporadic task; it only runs via grant assignment."""
        definition = TaskDefinition(name=name, resource_list=None)  # type: ignore[arg-type]
        thread = SimThread(
            tid=self._alloc_tid(),
            name=name,
            kind=THREAD_SPORADIC,
            definition=definition,
        )
        thread.ctx._kernel = self
        thread.gen = function(thread.ctx)
        thread.gen_exhausted = False
        thread.restart_pending = False
        self.threads[thread.tid] = thread
        return thread

    def _alloc_tid(self) -> int:
        tid = self._next_tid
        self._next_tid += 1
        return tid

    def periodic_threads(self) -> Iterable[SimThread]:
        return iter(self._periodic)

    def note_periodic_exit(self, thread: SimThread) -> None:
        """A thread reached EXITED; a periodic one leaves the scan list."""
        if thread.kind is THREAD_PERIODIC:
            self.reap_exited()

    def reap_exited(self) -> None:
        """Drop EXITED threads from the periodic scan list.

        An EXITED periodic thread has no grant and no open period (or,
        crashed with no ``crash_handler``, a grant every policy's queues
        skip), so removing it cannot change any scheduling decision.  It
        stays in :attr:`threads` for tid lookups and trace thread names.
        """
        self._periodic = [
            t for t in self._periodic if t.state is not STATE_EXITED
        ]

    def thread(self, tid: int) -> SimThread:
        try:
            return self.threads[tid]
        except KeyError:
            raise SchedulerError(f"no thread with id {tid}") from None

    # -- external events ------------------------------------------------------

    def at(self, time: int, action: Callable[[], None], label: str = "") -> None:
        """Schedule an external action (arrival, phone call, skew change)."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule an event at {time}, before now ({self.now})"
            )
        if time < self._stop:
            # Booked by a body inside its slice, due before the slice's
            # stop, which was set without it: the slice must not run past.
            self._reschedule = True
        self.events.schedule(time, action, label)

    def request_reschedule(self) -> None:
        """Ask the kernel to re-run the scheduler at the next opportunity."""
        self._reschedule = True

    # -- grant plumbing (called by the scheduler policy / RM) -----------------

    def start_first_period(self, thread: SimThread, grant: Grant, now: int) -> None:
        """Begin a thread's first period under ``grant`` at time ``now``.

        Used for newly admitted threads and for quiescent threads waking
        up; the initial grant is always delivered with callback
        semantics ("this is how the initial grant for an admitted task
        is always delivered").
        """
        if thread.kind is not THREAD_PERIODIC:
            raise SchedulerError(f"thread {thread.tid} is not periodic")
        thread.state = STATE_ACTIVE
        thread.pending_grant = None
        thread.has_pending_change = False
        self._open_period(thread, grant, now)
        if thread.deadline < self._next_rollover:
            self._next_rollover = thread.deadline
        thread.blocked_this_period = False
        thread.restart_pending = True
        thread.pending_compute = 0
        self._record_grant_change(now, thread, grant, "first grant")
        self.policy.on_period_open(thread)
        self._reschedule = True

    def _record_grant_change(
        self, time: int, thread: SimThread, grant: Grant | None, reason: str
    ) -> None:
        """``thread`` holds ``grant`` from ``time`` on (None: removed)."""
        fields = {
            "time": time,
            "thread_id": thread.tid,
            "period": grant.period if grant is not None else 0,
            "cpu_ticks": grant.cpu_ticks if grant is not None else 0,
            "entry_index": grant.entry_index if grant is not None else -1,
            "reason": reason,
        }
        self.trace.record_grant_change(GrantChangeRecord(**fields))
        if self.obs:
            self.obs.emit(GrantChangeEvent(**fields))

    # -- the main loop ----------------------------------------------------------

    def run_for(self, ticks: int) -> None:
        self.run_until(self.clock.now + ticks)

    def run_until(self, horizon: int) -> None:
        """Advance the simulation to absolute time ``horizon``.

        The clock ends past ``horizon`` only when a switch cost or an
        interrupt handler's stolen time carries it there; a caller
        stepping with :meth:`run_for` steps from where it ended.

        The one slice rule: every slice stops at the first of its timer
        (the policy's interrupt, or a grace slice's end: see
        :meth:`_handle_forced_stop`), the next event and the horizon.
        The hold rule: a slice goes on without a pick while no
        scheduling event has fired since the last pick — ``_reschedule``
        is clear; an event, a wake, a first period, every grant
        notification and a booking due before the running slice's stop
        (see :meth:`at`) set it, and a pick clears it once it has chosen
        (a first period it started itself is no event after it).  A
        period boundary or postponed start is no such event: the
        policy's timer chose the ones that stop the slice.  The rule
        holds at a cut: a slice the horizon stopped before its timer and
        the next event is held, and the next call resumes it after its
        preamble without ``pick`` or ``timer_for``, so a caller that cuts
        a horizon into many calls gets the run one call makes.  A grace
        slice is held from the interrupt that grants it, and resumed
        whatever fired: its preemption is decided.  The rule holds across
        a poll too (see :meth:`_execute`), and for every policy.  A
        resume is no decision, so it is not audited; it is one
        ``kernel.dispatch`` phase, the loop iteration it is.
        """
        if self.policy is None:
            raise SimulationError("no scheduler policy bound to the kernel")
        clock = self.clock
        # Looked up per run, not in bind_policy: tests and the fuzzer's
        # injections shadow these on the policy instance after binding.
        pick = self.policy.pick
        timer_for = self.policy.timer_for
        sanitizer = self.sanitizer
        prof = self.prof
        events = self.events
        event_heap = self._event_heap
        posted = self._posted
        while True:
            before = now = clock.now
            # Bring period accounting current *before* firing events:
            # an event handler (e.g. a wake -> grant recomputation) must
            # see boundaries that have already passed as processed, or
            # it can cancel a pending change retroactively.  A boundary
            # at exactly `now` is left for after the events, so a grant
            # change requested at instant t applies to the period
            # beginning at t ("the decrease occurs in the next period").
            # Each step is guarded inline by the cheap test that makes
            # it a no-op, so a quiet iteration calls none of them.
            if self._next_rollover < now:
                self._rollover_all(strict=True)
            if event_heap and event_heap[0].time <= now:
                self._fire_due_events()
                now = clock.now  # an interrupt handler steals time
            if posted:
                self._deliver_posts()
            if self._next_rollover <= now:
                self._rollover_all()
            if before >= horizon:
                # The run stops here, with the instant it stops at
                # finished as the next call would begin it — so trace
                # accounting covers the whole run, and a caller that
                # cuts a horizon into many calls gets the run one call
                # makes.  The open trace segment is the trace's last
                # row: the next slice of the same run extends it in
                # place.
                break
            # One phase frame covers the whole decision: pick, context
            # switch, and the dispatched slice.  A begin/end pair costs
            # about a microsecond (the prof-smoke CI gate holds it
            # there), so the loop pays for one per iteration, not one
            # per step.
            if prof:
                prof.begin("kernel.dispatch")
            held = self._held
            self._held = None
            if held is not None and (not self._reschedule or held[0].grace_pending):
                thread, timer = held  # a held cut or a grace slice
            else:
                thread = pick(now)
                self._reschedule = False  # after the pick: see the docstring
                if sanitizer is not None:
                    sanitizer.on_pick(thread, now)
                if thread is not self._current:
                    self._switch_to(thread)
                    now = clock.now
                    if self._next_rollover <= now:
                        # The switch cost carried the clock to a period
                        # boundary or a postponed start that no timer
                        # covered, so the pick may be stale: re-decide,
                        # as that boundary's interrupt would have.
                        if prof:
                            prof.end("kernel.dispatch")
                        continue
                timer = timer_for(thread, now)
            # The one slice rule (see the docstring).  An event wins its
            # tie with the timer; the horizon loses its tie with both, so
            # the interrupt due there is still one.  A switch cost can
            # land the clock past the stop: the slice is then of zero
            # length (the progress guard below catches livelocks).
            stop = timer
            preemptive = True
            if event_heap:
                next_event = events.next_time()
                if next_event is not None and next_event <= stop:
                    stop = next_event
                    preemptive = False
            self._stop = stop  # until the slice ends (see at())
            end = horizon if stop > horizon else stop
            if thread.is_idle:
                if end > now:
                    clock.advance_to(end)
                    self.trace.record_run(thread.tid, now, end, SEGMENT_IDLE)
                outcome = SLICE_FORCED
            else:
                outcome = self._execute(thread, end)
            self._stop = 0
            cut = outcome is SLICE_FORCED and end < stop
            if cut:
                self._held = (thread, timer)
            if thread.grace_pending and not cut:
                self._pending_switch_kind = self._end_grace(thread)
            elif thread.is_idle or outcome is SLICE_DONE or outcome is SLICE_BLOCKED:
                self._pending_switch_kind = SWITCH_VOLUNTARY
            elif preemptive and not cut and outcome is SLICE_FORCED:
                # The policy's timer interrupt.
                self._pending_switch_kind = self._handle_forced_stop(thread)
            else:  # interrupted, or FORCED by an event or the horizon
                self._pending_switch_kind = SWITCH_INVOLUNTARY
            if prof:
                prof.end("kernel.dispatch")
            if clock.now != before:
                self._no_progress = 0
            else:
                self._no_progress += 1
                if self._no_progress > 10_000:
                    raise SchedulerError(
                        f"scheduler made no progress at t={self.now}; likely a "
                        f"policy/task livelock"
                    )

    def _fire_due_events(self) -> None:
        for event in self.events.pop_due(self.now):
            event.action()
            self._reschedule = True

    # -- context switching -------------------------------------------------------

    def _switch_to(self, thread: SimThread) -> None:
        prev = self._current
        if prev is thread:
            return
        if prev is not None:
            kind = self._pending_switch_kind
            cost = self.switch_model.sample_ticks(kind)
            if cost:
                start = self.clock.now
                self.clock.advance(cost)
                self.reserve.charge(cost)
                self.trace.record_run(-1, start, self.clock.now, SEGMENT_SYSTEM)
            self.trace.record_switch(self.now, prev.tid, thread.tid, kind, cost)
            if self.obs:
                # ``_value_`` is the member's own attribute; ``.value``
                # is a property resolved through the enum machinery.
                self.obs.emit_switch(
                    self.now, prev.tid, thread.tid, kind._value_, cost
                )
        self._current = thread
        self._pending_switch_kind = SWITCH_VOLUNTARY

    # -- dispatching ------------------------------------------------------------

    def _handle_forced_stop(self, thread: SimThread) -> SwitchKind:
        """Grant a controlled-preemption grace period (section 5.6).  The
        grace slice is the loop's next slice, held with its end as the
        timer: the task's next check, or the whole grace period when the
        check falls past it.  :meth:`_end_grace` settles it."""
        definition = thread.definition
        if (
            definition is None
            or definition.preemption is None
            or not thread.has_pending_work()
        ):
            return SWITCH_INVOLUNTARY
        self._rollover_all()
        if not self.policy.preemption_imminent(thread, self.now):
            return SWITCH_INVOLUNTARY
        notice = definition.preemption.check_interval
        thread.grace_pending = True
        self._held = (thread, self.now + min(notice, self.machine.grace_period_ticks))
        return SWITCH_VOLUNTARY  # until _end_grace settles it

    def _end_grace(self, thread: SimThread) -> SwitchKind:
        """Settle a grace slice where it ended: a task that could not
        notice in time is involuntarily preempted, with an exception
        callback so it can clean up when next run."""
        thread.grace_pending = False
        definition = thread.definition
        grace = self.machine.grace_period_ticks
        honoured = definition.preemption.check_interval <= grace
        if not honoured:
            thread.missed_grace_count += 1
            thread.ctx.missed_grace = True
            if definition.exception_callback is not None:
                definition.exception_callback(self.now)
        if self.obs:
            self.obs.emit(
                GraceEvent(self.now, thread.tid, honoured=honoured, grace_ticks=grace)
            )
        return SWITCH_VOLUNTARY if honoured else SWITCH_INVOLUNTARY

    def _current_runner(self, thread: SimThread) -> tuple[SimThread, bool]:
        """The generator actually running: the thread itself, or the
        sporadic task its grant is assigned to."""
        target = thread.assignment_target
        if target is None:
            return thread, False
        if target.state is not STATE_ACTIVE or target.gen_exhausted:
            thread.clear_assignment()
            return thread, False
        return target, True

    def _execute(self, thread: SimThread, stop: int) -> SliceEnd:
        """Run ``thread`` (or its assignee) until ``stop`` or a yield.

        When the clock reaches ``stop`` with no compute in flight we
        still fetch a bounded number of ops: a task whose work completes
        exactly as the timer fires yields (DonePeriod/Block) in the same
        instant, and treating that as a forced preemption would strand
        it on the wrong queue.  A Compute op ends the indulgence.

        Compute is consumed on one path: an op is parked in
        ``pending_compute`` and charged through :meth:`_consume` up to
        ``stop``, however long it is — a ``Compute`` is interruptible at
        any tick, so how a body divides a unit of work into ops changes
        nothing unless the body acts in between.

        Before a body runs, the boundaries its slice ran past are
        closed (those before now, as before an event fires), so what it
        does — a Resource Manager call, a post — lands on the periods a
        cut there would have shown it.

        A poll is the hold rule (see :meth:`run_until`) inside a slice.
        A thread picked from OvertimeRequested that asks for overtime
        again (``DonePeriod(overtime=True)``) changes no queue, so the
        slice goes on (:meth:`_poll`) while no scheduling event has
        fired — a body's booking before the stop is one — with time
        short of ``stop`` or ``stop`` the horizon's cut (the slice is
        then held, as one call runs it on), not in a grace slice, and
        with time spent since the last poll (or a body that polls
        without computing would never leave the loop).
        """
        ops_at_stop = 0
        clock = self.clock
        posted = self._posted
        polled = clock.now
        # The ticks of the thread's own Poll when that was the last op
        # fetched, else 0.
        poll = 0
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
                    return SLICE_FORCED
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

            # Need the next op from the runner's generator: return
            # semantics resume the live one, callback semantics (or a
            # call that ran to completion) start afresh.  The period's
            # grant reached the context when the period opened.
            if not assigned and (
                thread.restart_pending or thread.gen is None or thread.gen_exhausted
            ):
                self._start_generator(thread)
            if runner.gen is None or runner.gen_exhausted:
                if assigned:
                    thread.clear_assignment()
                    continue
                self._mark_done(thread)
                return SLICE_DONE
            if self._next_rollover < now:
                self._rollover_all(strict=True)
            try:
                op = runner.gen.send(None)
            except StopIteration:
                runner.gen_exhausted = True
                if posted:
                    self._deliver_posts()
                if assigned:
                    runner.state = STATE_EXITED
                    thread.clear_assignment()
                    continue
                self._mark_done(thread)
                return SLICE_DONE
            except Exception as exc:  # noqa: BLE001 - fault isolation boundary
                outcome = self._crash(thread, runner, assigned, exc)
                if outcome is not None:
                    return outcome
                continue
            if posted:
                self._deliver_posts()  # the generator body posted a waited-on channel

            if op.__class__ is Compute:
                # The common op, without the call into _apply_op.
                runner.pending_compute = op.ticks
                poll = 0
            elif op.__class__ is Poll:
                runner.pending_compute = op.ticks
                poll = 0 if assigned else op.ticks
            elif (
                op.__class__ is DonePeriod
                and op.overtime
                and thread.wants_overtime  # declared done, with overtime
                and not assigned
                and polled < (now := clock.now)
                and (now < stop or stop < self._stop)
                and not self._reschedule
                and not thread.grace_pending
                and self._poll(thread, now, stop, poll)
            ):
                polled = clock.now
                poll = 0
                continue
            else:
                poll = 0
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
                return SLICE_INTERRUPTED

    def _poll(self, thread: SimThread, now: int, stop: int, poll: int) -> bool:
        """Continue ``thread``'s slice across a poll at ``now``: the
        decision the loop would re-make, audited and profiled as one.

        ``poll`` is the ticks of the thread's own ``Poll`` when that was
        the op before this one, else 0.  The body then promises (see
        :class:`~repro.tasks.base.Poll`) to yield the same two ops again
        after every further ``Poll``, so every poll that ends strictly
        before ``stop`` is charged in one ``_consume``, each audited and
        profiled at its end, the ``(tid, now)`` the loop would give.
        Returns whether the slice goes on (always, here).
        """
        prof = self.prof
        sanitizer = self.sanitizer
        if prof:
            prof.end("kernel.dispatch")
            prof.begin("kernel.dispatch")
        if sanitizer is not None:
            sanitizer.on_pick(thread, now)
        count = (stop - now - 1) // poll if poll else 0
        if count > 0:
            thread.pending_compute = count * poll
            self._consume(thread, thread, count * poll, False)
            if prof or sanitizer is not None:
                for at in range(now + poll, self.clock.now + 1, poll):
                    if prof:
                        prof.end("kernel.dispatch")
                        prof.begin("kernel.dispatch")
                    if sanitizer is not None:
                        sanitizer.on_pick(thread, at)
        return True

    def _crash(
        self, thread: SimThread, runner: SimThread, assigned: bool, exc: Exception
    ) -> SliceEnd | None:
        """Contain an application fault: retire the faulting thread.

        A crash is the task "terminating naturally" in the ugliest way;
        the scheduler and every other admitted task keep their
        guarantees.  Returns the slice outcome, or None when only an
        assignee died and the assigning thread continues.
        """
        self.crashes.append((self.now, runner.tid, repr(exc)))
        self.trace.note(self.now, f"thread {runner.tid} crashed: {exc!r}")
        runner.gen = None
        runner.gen_exhausted = True
        runner.pending_compute = 0
        if self.crash_handler is not None:
            self.crash_handler(runner, exc)
        else:
            runner.state = STATE_EXITED
            self.note_periodic_exit(runner)
        if assigned:
            thread.clear_assignment()
            return None
        self._mark_done(thread)
        return SLICE_DONE

    def _mark_done(self, thread: SimThread, overtime: bool = False) -> None:
        """The thread finished its period's work at the current tick."""
        thread.declared_done = True
        thread.wants_overtime = overtime
        if thread.completed_at < 0:
            thread.completed_at = self.clock.now
        if overtime:
            self.policy.on_overtime_request(thread)

    def _apply_op(
        self, thread: SimThread, runner: SimThread, assigned: bool, op
    ) -> SliceEnd | None:
        """Process one yielded op; returns a SliceEnd to stop the slice."""
        if isinstance(op, DonePeriod):
            if assigned:
                # A sporadic task pausing: end the assignment early.
                thread.clear_assignment()
                return None
            self._mark_done(thread, overtime=op.overtime)
            return SLICE_DONE
        if isinstance(op, Block):
            if op.channel.try_take():
                return None
            self._block_on(runner, op.channel)
            self.trace.record_block(
                BlockRecord(
                    time=self.now,
                    thread_id=runner.tid,
                    blocked=True,
                    channel=op.channel.name,
                )
            )
            if assigned:
                # "when the sporadic thread blocks, the Scheduler returns
                # to the periodic task."
                thread.clear_assignment()
                return None
            thread.blocked_this_period = True
            return SLICE_BLOCKED
        if isinstance(op, AssignGrant):
            if assigned:
                raise TaskError("a sporadic task cannot re-assign a grant")
            target = self.threads.get(op.task_id)
            if (
                target is not None
                and target.kind is THREAD_SPORADIC
                and target.state is STATE_ACTIVE
                and not target.gen_exhausted
            ):
                thread.assignment_target = target
                thread.assignment_remaining = op.ticks
            return None
        if isinstance(op, InsertIdleCycles):
            if assigned:
                raise TaskError("a sporadic task has no period to postpone")
            thread.postpone_next += op.ticks
            return None
        raise TaskError(f"thread {runner.tid} yielded an unknown op {op!r}")

    def _consume(
        self, thread: SimThread, runner: SimThread, run: int, assigned: bool
    ) -> None:
        granted = thread.remaining
        if 0 < granted < run and not thread.declared_done:
            # The run crosses the grant's last tick: granted up to it
            # (completion and the overtime request happen on that tick),
            # overtime after — wherever the body's op boundaries fall.
            self._consume(thread, runner, granted, assigned)
            run -= granted
        start = self.clock.now
        end = self.clock.advance(run)
        runner.pending_compute -= run
        if thread.remaining > 0 and not thread.declared_done:
            kind = SEGMENT_ASSIGNED if assigned else SEGMENT_GRANTED
            thread.remaining -= run
            thread.used += run
            if thread.remaining <= 0:
                if thread.completed_at < 0:
                    thread.completed_at = end
                # Out of granted time: an implicit overtime request.
                self.policy.on_overtime_request(thread)
        else:
            kind = SEGMENT_ASSIGNED if assigned else SEGMENT_OVERTIME
            thread.overtime_used += run
        self.trace.record_run(
            runner.tid,
            start,
            end,
            kind,
            thread.period_index,
            thread.tid if assigned else None,
        )

    def _start_generator(self, thread: SimThread) -> None:
        """A fresh call on a cleared stack (callback semantics, or the
        previous call ran to completion)."""
        if thread.grant is None:
            raise SchedulerError(
                f"thread {thread.tid} dispatched without a grant"
            )
        thread.gen = thread.grant.entry.function(thread.ctx)
        thread.gen_exhausted = False
        thread.restart_pending = False
        thread.pending_compute = 0

    # -- wakes -------------------------------------------------------------------

    def _block_on(self, runner: SimThread, channel: Channel) -> None:
        """Park ``runner`` on ``channel`` until a post is delivered."""
        runner.state = STATE_BLOCKED
        runner.blocked_channel = channel
        self._block_seq += 1
        runner.block_seq = self._block_seq
        waiters = self._waiters.get(channel)
        if waiters is None:
            waiters = self._waiters[channel] = deque()
        else:
            # A waiter that left BLOCKED some other way (exit, restart
            # by a fresh first period) is dropped when met; meeting the
            # head here bounds the queue of a channel nobody posts to.
            while waiters and self._stale_waiter(*waiters[0]):
                waiters.popleft()
        waiters.append((runner.block_seq, runner))
        channel.waker = self._note_post

    @staticmethod
    def _stale_waiter(seq: int, thread: SimThread) -> bool:
        return thread.block_seq != seq or thread.state is not STATE_BLOCKED

    def _deliver_posts(self) -> None:
        """Wake the waiters of every channel posted to since the last
        delivery point.

        Only those channels' queues are touched.  Each post wakes one
        waiter in the order they blocked (FIFO), so a frequently
        re-blocking thread cannot starve a peer on the same channel; a
        post already eaten by a non-blocking ``try_take`` wakes nobody.
        When several channels fire in one delivery, the wakes are
        applied in block order across them.
        """
        batch = self._posted[:]
        self._posted.clear()
        woken: list[tuple[int, SimThread, Channel]] = []
        for channel in batch:
            waiters = self._waiters.get(channel)
            if waiters is None:
                continue  # posted twice; the first visit emptied it
            while waiters:
                seq, thread = waiters[0]
                if self._stale_waiter(seq, thread):
                    waiters.popleft()
                elif channel.try_take():
                    waiters.popleft()
                    woken.append((seq, thread, channel))
                else:
                    break
            if not waiters:
                del self._waiters[channel]
                if channel.waker is self._note_post:
                    channel.waker = None
        if len(woken) > 1:
            woken.sort(key=itemgetter(0))  # block order across channels
        for _, thread, channel in woken:
            self._wake(thread, channel)

    def _wake(self, thread: SimThread, channel: Channel) -> None:
        thread.state = STATE_ACTIVE
        thread.blocked_channel = None
        self.trace.record_block(
            BlockRecord(
                time=self.now,
                thread_id=thread.tid,
                blocked=False,
                channel=channel.name,
            )
        )
        self._reschedule = True
        self.policy.on_wake(thread)

    # -- period rollover ------------------------------------------------------------

    def _rollover_all(self, strict: bool = False) -> None:
        """Process every period boundary at or before the current time
        (strictly before it when ``strict``), in boundary order.

        The earliest upcoming boundary — or postponed start, a boundary
        of its own to a switch that crosses it — is cached across
        calls, so the common case — nothing due yet — is O(1) instead of
        a scan of the whole periodic population.  Period opens that
        happen outside this scan (:meth:`start_first_period`) lower the
        cache; opens inside the scan are folded into the minimum it
        computes.

        Due boundaries close by ``(deadline, tid)`` — the order they
        fell in, ties by creation — so a late scan (after an idle
        stretch or a long slice) records what an on-time one would
        have, whenever the caller happens to look.
        """
        now = self.clock.now
        cached = self._next_rollover
        if cached > now or (strict and cached == now):
            return
        limit = now if strict else now + 1  # due: deadline < limit
        # Any first period started by a policy hook while the scan runs
        # lowers _next_rollover; fold it into the final minimum.
        self._next_rollover = units.INFINITE
        earliest = units.INFINITE
        due = []
        for thread in self._periodic:
            if thread.grant is None:
                continue
            deadline = thread.deadline
            if deadline < limit:
                due.append((deadline, thread.tid, thread))
            else:
                start = thread.period_start
                upcoming = start if start > now else deadline
                if upcoming < earliest:
                    earliest = upcoming
        heapify(due)
        while due:
            thread = heappop(due)[2]
            self._close_period(thread)
            self._open_next_period(thread)
            if thread.grant is None:
                continue
            deadline = thread.deadline
            if deadline < limit:
                heappush(due, (deadline, thread.tid, thread))
            else:
                start = thread.period_start
                upcoming = start if start > now else deadline
                if upcoming < earliest:
                    earliest = upcoming
        self._next_rollover = min(self._next_rollover, earliest)

    def _close_period(self, thread: SimThread) -> None:
        grant = thread.grant
        assert grant is not None
        delivered = min(thread.used, grant.cpu_ticks)
        voided = thread.blocked_this_period or thread.state is STATE_BLOCKED
        missed = (
            not voided
            and not thread.declared_done
            and delivered < grant.cpu_ticks
            and thread.state is STATE_ACTIVE
        )
        self.trace.record_deadline(
            thread.tid,
            thread.period_index,
            thread.period_start,
            thread.deadline,
            grant.cpu_ticks,
            delivered,
            missed,
            voided,
        )
        if self.obs:
            # One event per close: the analysis layer needs every
            # period's start/completion to compute delivery ratios and
            # latency percentiles, not just the exceptional closes.  The
            # fast path appends scalars to the arena columns without
            # ever building the event object.
            self.obs.emit_period_close(
                thread.deadline,
                thread.tid,
                thread.period_index,
                thread.period_start,
                thread.completed_at,
                grant.cpu_ticks,
                delivered,
                missed,
                voided,
            )
        if self.sanitizer is not None:
            self.sanitizer.on_period_close(thread, grant.cpu_ticks, delivered, missed)
        thread.periods_completed += 1
        thread.total_granted_ticks += grant.cpu_ticks
        thread.total_used_ticks += thread.used
        thread.total_overtime_ticks += thread.overtime_used
        thread.last_completed = thread.completed_call()
        thread.last_used = thread.used + thread.overtime_used

    def _open_next_period(self, thread: SimThread) -> None:
        old_grant = thread.grant
        assert old_grant is not None
        new_grant = old_grant
        if thread.has_pending_change:
            new_grant = thread.pending_grant
            thread.pending_grant = None
            thread.has_pending_change = False
        if new_grant is None:
            self._retire_grant(thread)
            return

        start = thread.deadline + thread.postpone_next
        thread.postpone_next = 0
        self._open_period(thread, new_grant, start)
        thread.blocked_this_period = thread.state is STATE_BLOCKED

        changed = new_grant.entry is not old_grant.entry
        if changed:
            self._record_grant_change(start, thread, new_grant, "grant change")
        thread.restart_pending = self._needs_restart(thread, old_grant, new_grant, changed)
        if thread.restart_pending:
            thread.pending_compute = 0
        self.policy.on_period_open(thread)

    def _open_period(self, thread: SimThread, grant: Grant, start: int) -> None:
        """Reset ``thread``'s per-period books for a period of ``grant``
        opening at ``start`` and hand the grant to its context.  The
        caller records the grant change and notifies the policy."""
        thread.grant = grant
        thread.period_index += 1
        thread.period_start = start
        thread.deadline = start + grant.period
        thread.remaining = grant.cpu_ticks
        thread.used = 0
        thread.overtime_used = 0
        thread.declared_done = False
        thread.wants_overtime = False
        thread.completed_at = -1
        thread.ctx.delivery = GrantDelivery(
            previous_completed=thread.last_completed,
            previous_used=thread.last_used,
            grant=grant,
            period_start=start,
        )

    def _needs_restart(
        self, thread: SimThread, old: Grant, new: Grant, changed: bool
    ) -> bool:
        # A blocked thread's call is suspended mid-Block; restarting it
        # would discard the continuation its wake must resume ("they
        # will resume in the first full period in which the thread is
        # not blocked").  Fresh callbacks wait until it unblocks.
        if (
            thread.state is STATE_BLOCKED
            and thread.gen is not None
            and not thread.gen_exhausted
        ):
            return False
        if thread.gen is None or thread.gen_exhausted or thread.restart_pending:
            return True
        definition = thread.definition
        assert definition is not None
        if definition.semantics is SEMANTICS_CALLBACK:
            return True
        if not changed:
            return False
        # RETURN-semantics task whose grant changed: the filter callback
        # (if registered) chooses; otherwise clean up with a fresh call.
        # A faulting filter gets the safe default (fresh call) rather
        # than taking the machine down.
        if definition.filter_callback is not None:
            try:
                return definition.filter_callback(old, new) is SEMANTICS_CALLBACK
            except Exception as exc:  # noqa: BLE001 - fault isolation
                self.trace.note(
                    self.now, f"thread {thread.tid} filter callback crashed: {exc!r}"
                )
                return True
        return True

    def _retire_grant(self, thread: SimThread) -> None:
        """A pending removal took effect at the period boundary: the
        closed period's deadline, which is when it is stamped."""
        thread.grant = None
        thread.remaining = 0
        thread.pending_compute = 0
        thread.gen = None
        thread.gen_exhausted = False
        thread.restart_pending = True
        new_state = thread.pending_state or STATE_QUIESCENT
        thread.pending_state = None
        if thread.state is not STATE_BLOCKED or new_state is STATE_EXITED:
            thread.state = new_state
        if new_state is STATE_EXITED:
            self.note_periodic_exit(thread)
        self.exclusive.release_thread(thread.tid)
        self._record_grant_change(
            thread.deadline, thread, None, f"grant removed ({new_state._value_})"
        )
