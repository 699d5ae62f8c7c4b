"""The ETI Resource Distributor's Scheduler.

A policy-free Earliest Deadline First enforcer (section 4.2):

* Threads with unused granted CPU this period form the **TimeRemaining**
  queue; threads that used their allocation or declared themselves done
  form the **TimeExpired** queue, a subset of which — those that ran out
  of time with work left, or explicitly asked — is **OvertimeRequested**.
  All queues are deadline-ordered.  The Idle thread is always on
  OvertimeRequested.
* On a context switch the Scheduler takes the head of TimeRemaining; if
  that queue is empty and new grants are pending it calls back to the
  Resource Manager for them (so adding a task can never disturb an
  admitted task); finally it takes the head of OvertimeRequested.
* The timer interrupt is set for the earlier of (1) the end of the
  running thread's grant for this period and (2) the beginning of a new
  period for another thread whose next-period end precedes the running
  thread's period end.
* Small-overlap override: when the remaining allocation past such a
  boundary is smaller than a context-switch-scale threshold, the thread
  is allowed to finish rather than being preempted twice.
* Grant decreases/removals are applied at the affected thread's next
  period boundary immediately; increases and new threads wait for
  unallocated CPU time.

The Scheduler communicates only with the Resource Manager — never with
the Policy Box, users, or applications.

The three things the kernel asks on every dispatch — the TimeRemaining
head, the OvertimeRequested head, and the next fresh allocation that
ends a stretch of unallocated time — are each the head of a lazy
min-heap, so a dispatch costs the same however many threads exist.  The
rule is the same for all three: *push* ``(key, tid, thread)`` on the
event that can make the thread a candidate (period open, wake, overtime
request, a grant notification that touches its pending change);
*validate* the head with the very predicate a scan would apply; *drop*
a head that fails it.  Nothing is ever removed from the middle, and
writes the Scheduler is not told about (an exit, a termination) need no
hook because they only make entries fail validation.  A per-thread
stamp (``SimThread.queued_*``) records the deadline already queued, so
a thread holds one OvertimeRequested entry per period however often it
asks; the stamp is cleared when that entry is dropped, so the next
event re-queues it.  A greedy Sporadic Server's repeated request (a
poll) is therefore no queue change, and the kernel does not re-pick on
it: the server keeps its slice to the next scheduling event.  Timer
rule (2) reads the third heap as well: it meets the boundaries below
the running thread's limit in time order, setting aside the valid ones
that do not preempt and pushing them back.  A grant notification
revisits only the threads the controller reports as changed, those that
joined or left the set, and those whose state can move unlisted: an
activated increase in flight, a pending increase of a running thread.  The full scans (:mod:`repro.core.threads`)
survive as debug views (:meth:`RDScheduler.time_remaining_queue`,
:meth:`~RDScheduler.overtime_queue`, :meth:`~RDScheduler.snapshot`) and
behind :meth:`~RDScheduler.preemption_imminent`.
"""

from __future__ import annotations

from heapq import heappop, heappush

from repro import units
from repro.core.grant_control import GrantSetResult
from repro.core.grants import Grant, GrantSet
from repro.core.kernel import Kernel
from repro.core.threads import (
    STATE_ACTIVE,
    STATE_EXITED,
    THREAD_PERIODIC,
    SimThread,
    earlier_time_remaining,
    scan_overtime,
    scan_time_remaining,
)


class RDScheduler:
    """The Resource Distributor's EDF scheduler policy."""

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self.overlap_override_ticks = kernel.machine.overlap_override_ticks
        #: Grants awaiting unallocated CPU time: tid -> Grant.
        self._pending_activation: dict[int, Grant] = {}
        #: Count of Resource Manager callbacks taken at unallocated time.
        self.activation_count = 0
        #: TimeRemaining candidates as (deadline, tid, thread), pushed
        #: at period open and on wake.
        self._ready_heap: list[tuple[int, int, SimThread]] = []
        #: OvertimeRequested candidates as (deadline, tid, thread),
        #: pushed on an overtime request and on wake.
        self._overtime_heap: list[tuple[int, int, SimThread]] = []
        #: Fresh-allocation times as (boundary, tid, thread): a thread's
        #: deadline (and the start of a postponed period), pushed at
        #: period open, on wake, and when a notification re-arms a
        #: boundary that a pending removal had cancelled.
        self._boundary_heap: list[tuple[int, int, SimThread]] = []
        #: The grant set delivered by the last ``notify_grant_set`` call,
        #: diffed against to skip threads whose grant did not change.
        self._last_notified: GrantSet | None = None
        #: The threads whose state can move between two notifications
        #: without the next result listing them, so every notification
        #: revisits them (DESIGN.md §4 "A notification revisits what can
        #: move").  Activated increases still in flight: the
        #: unallocated-time callback handed the increase to a running
        #: thread, which waits for its boundary.
        self._activated: set[int] = set()
        #: Pending increases of running threads: the subset of
        #: ``_pending_activation`` filed for a thread in its period,
        #: whose boundary may apply the increase an earlier callback
        #: handed over.
        self._pending_increases: set[int] = set()
        kernel.bind_policy(self)
        # Threads that started periods before this policy was bound (test
        # harnesses drive start_first_period directly) never saw the
        # period-open hook; seed the heaps with them.
        for thread in kernel.periodic_threads():
            if thread.in_period:
                self.on_period_open(thread)

    # -- kernel notification hooks ---------------------------------------------

    def on_period_open(self, thread: SimThread) -> None:
        """A period just opened: queue the thread's fresh deadline.

        Called by the kernel from ``start_first_period`` and period
        rollover.  Old entries for the thread become stale (its deadline
        moved) and are dropped when they surface at a heap head.
        """
        self._push_ready(thread)
        self._push_boundary(thread)
        self._push_postponed_start(thread)

    def on_wake(self, thread: SimThread) -> None:
        """A blocked thread is ACTIVE again: re-queue what was dropped
        (or skipped) while it could not run."""
        if thread.grant is None:
            return  # a sporadic task, or a grant retired while blocked
        if thread.remaining > 0 and not thread.declared_done:
            self._push_ready(thread)
        else:
            self.on_overtime_request(thread)
        self._push_boundary(thread)
        self._push_postponed_start(thread)

    def on_overtime_request(self, thread: SimThread) -> None:
        """The thread ran out of granted time or asked for overtime."""
        deadline = thread.deadline
        if thread.queued_overtime != deadline:
            # Pushing meets the head too, so a machine with no
            # unallocated time (pick never reads this heap) still sheds
            # the entries of periods long closed.
            self._overtime_head(self.kernel.clock.now)
            thread.queued_overtime = deadline
            heappush(self._overtime_heap, (deadline, thread.tid, thread))

    def _push_ready(self, thread: SimThread) -> None:
        deadline = thread.deadline
        if thread.queued_ready != deadline:
            thread.queued_ready = deadline
            heappush(self._ready_heap, (deadline, thread.tid, thread))

    def _push_boundary(self, thread: SimThread) -> None:
        deadline = thread.deadline
        if thread.queued_boundary != deadline:
            # Meets the head, as on_overtime_request does and why.
            self._unallocated_timer(self.kernel.idle, self.kernel.clock.now)
            thread.queued_boundary = deadline
            heappush(self._boundary_heap, (deadline, thread.tid, thread))

    def _push_postponed_start(self, thread: SimThread) -> None:
        """Until a postponed period begins, its start — not its
        deadline — is the thread's fresh allocation.  Reached once per
        period open and once per wake, so it needs no stamp."""
        if thread.period_start > self.kernel.clock.now:
            heappush(
                self._boundary_heap, (thread.period_start, thread.tid, thread)
            )

    # -- Resource Manager interface ------------------------------------------

    def notify_grant_set(self, result: GrantSetResult) -> None:
        """Receive a new grant set from the Resource Manager.

        Decreases and removals take effect at each affected thread's
        next period boundary, immediately; increases and first grants
        wait for unallocated time ("the next time there is unallocated
        CPU time, the Scheduler makes a callback to the Resource Manager
        to get the new grant information").

        Only the threads in ``result.changed``, those entering or
        leaving the set, and the two sets of threads whose state can
        move unlisted (:attr:`_activated`, :attr:`_pending_increases`)
        are revisited, and that must leave the state a revisit of every
        thread leaves.  A pending first grant, a held removal and a held
        decrease are not revisited: for each, a revisit writes back the
        values it reads until the result lists the thread again.  An
        increase the activation callback has handed to a running thread
        goes back to pending activation at every notification, listed
        in ``changed`` or not, and a pending increase is dropped once
        the thread's boundary has applied it
        (``tests/core/test_recompute_memo.py::TestChangedContract::
        test_an_activated_increase_in_flight_is_revisited``, shrunk
        from a lossy two-node rack).  A hand-built result
        (``changed=None``) revisits every thread in either set and
        every live periodic thread: the reference semantics the reduced
        revisit is checked against.
        """
        prof = self.kernel.prof
        if prof:
            prof.begin("sched.notify")
        grant_set = result.grant_set
        previous = self._last_notified
        pending = self._pending_activation
        activated = self._activated
        increases = self._pending_increases
        before = previous.ids() if previous is not None else frozenset()
        work = activated | increases
        if result.changed is None:
            work.update(before, grant_set.ids(), pending)
            work.update([t.tid for t in self.kernel.periodic_threads()])
        else:
            work.update(result.changed, grant_set.ids() ^ before)
        threads = self.kernel.threads
        for tid in sorted(work):
            activated.discard(tid)
            increases.discard(tid)
            pending.pop(tid, None)
            thread = threads.get(tid)
            if (
                thread is None
                or thread.kind is not THREAD_PERIODIC
                or thread.state is STATE_EXITED
            ):
                continue
            new = grant_set.get(tid)
            if thread.in_period:
                assert thread.grant is not None
                if new is None:
                    thread.pending_grant = None
                    thread.has_pending_change = True
                elif new.entry is thread.grant.entry:
                    thread.pending_grant = None
                    thread.has_pending_change = False
                    # May cancel a pending removal, whose boundary entry
                    # was free to be dropped: the deadline is a fresh
                    # allocation again.
                    self._push_boundary(thread)
                elif new.rate <= thread.grant.rate:
                    thread.pending_grant = new
                    thread.has_pending_change = True
                    self._push_boundary(thread)  # likewise
                else:
                    if thread.has_pending_change and thread.pending_grant is None:
                        # A woken thread's held removal: it keeps its
                        # grant, and its boundary is fresh again.
                        thread.has_pending_change = False
                        self._push_boundary(thread)
                    pending[tid] = new
                    increases.add(tid)
            elif new is not None:
                pending[tid] = new
        self._last_notified = grant_set
        self.kernel.request_reschedule()
        if prof:
            prof.end("sched.notify")

    def _activate(self, now: int) -> None:
        """The unallocated-time callback: start new grants."""
        self.activation_count += 1
        prof = self.kernel.prof
        if prof:
            prof.begin("sched.activate")
        pending, self._pending_activation = self._pending_activation, {}
        self._pending_increases.clear()
        obs = self.kernel.obs
        if obs:
            obs.emit_activation(now, len(pending))
        # tid order (the threads' creation order): the persistent pending
        # dict accretes entries across notifications in arbitrary order.
        for tid, grant in sorted(pending.items()):
            thread = self.kernel.threads.get(tid)
            if thread is None or thread.state is STATE_EXITED:
                continue
            if thread.in_period:
                # An increase for a running thread: applies at its next
                # period boundary, so the grant never changes mid-period.
                thread.pending_grant = grant
                thread.has_pending_change = True
                self._activated.add(tid)
                self._push_boundary(thread)  # may replace a pending removal
            else:
                # A new thread or a quiescent thread waking up: its first
                # period starts now, in time that would otherwise have
                # been unallocated.
                self.kernel.start_first_period(thread, grant, now)
        if prof:
            prof.end("sched.activate")

    # -- queue views -----------------------------------------------------------

    def time_remaining_queue(self, now: int) -> list[SimThread]:
        return scan_time_remaining(self.kernel.periodic_threads(), now)

    def overtime_queue(self, now: int) -> list[SimThread]:
        return scan_overtime(self.kernel.periodic_threads(), now)

    # -- kernel policy interface ---------------------------------------------------

    def _ready_head(self, now: int) -> SimThread | None:
        """Earliest-deadline thread eligible for TimeRemaining, or None.

        A head is dropped when its deadline no longer matches its thread
        (a later period opened), or its thread retired, exited, blocked
        or spent its allocation for the period — the next period open,
        or the wake, queues the thread again.  Only a postponed period
        that has not begun is set aside and pushed back: nothing tells
        the Scheduler when it starts.
        """
        heap = self._ready_heap
        deferred: list[tuple[int, int, SimThread]] | None = None
        head: SimThread | None = None
        while heap:
            deadline, _, thread = heap[0]
            if (
                thread.deadline != deadline
                or thread.remaining <= 0
                or thread.declared_done
                or thread.state is not STATE_ACTIVE
                or thread.grant is None
            ):
                heappop(heap)
                if thread.queued_ready == deadline:
                    thread.queued_ready = -1
                continue
            if thread.period_start > now:
                if deferred is None:
                    deferred = []
                deferred.append(heappop(heap))
                continue
            head = thread
            break
        if deferred:
            for entry in deferred:
                heappush(heap, entry)
        return head

    def _overtime_head(self, now: int) -> SimThread | None:
        """Earliest-deadline thread eligible for OvertimeRequested, or
        None (the caller then runs Idle, which is always on the queue)."""
        heap = self._overtime_heap
        while heap:
            deadline, _, thread = heap[0]
            if thread.deadline == deadline and thread.eligible_overtime(now):
                return thread
            heappop(heap)
            if thread.queued_overtime == deadline:
                thread.queued_overtime = -1
        return None

    def pick(self, now: int) -> SimThread:
        head = self._ready_head(now)
        if head is None and self._pending_activation:
            self._activate(now)
            head = self._ready_head(now)
        if head is None:
            head = self._overtime_head(now)
        return head if head is not None else self.kernel.idle

    def timer_for(self, thread: SimThread, now: int) -> int:
        if thread.is_idle or not thread.eligible_time_remaining(now):
            return self._unallocated_timer(thread, now)
        assert thread.grant is not None
        grant_end = now + thread.remaining
        limit = min(grant_end, thread.deadline)
        boundary = self._earliest_preempting_boundary(thread, now, limit)
        if boundary is not None:
            if grant_end - boundary <= self.overlap_override_ticks:
                # Small-overlap override: finish the nearly-done grant
                # instead of paying two context switches.
                return limit
            return boundary
        return limit

    def _unallocated_timer(self, thread: SimThread, now: int) -> int:
        """Timer while running on unallocated time (overtime or idle):
        any thread's fresh allocation preempts."""
        stop = units.INFINITE
        if not thread.is_idle and thread.grant is not None:
            stop = thread.deadline
        heap = self._boundary_heap
        while heap:
            boundary, _, other = heap[0]
            if self._fresh_allocation_time(other, now) == boundary:
                return boundary if boundary < stop else stop
            heappop(heap)
            if other.queued_boundary == boundary:
                other.queued_boundary = -1
        return stop

    def _fresh_allocation_time(self, thread: SimThread, now: int) -> int | None:
        """When ``thread`` next receives a fresh allocation, if ever."""
        if thread.state is not STATE_ACTIVE or thread.grant is None:
            return None
        if thread.period_start > now:
            return thread.period_start  # postponed period about to begin
        if thread.has_pending_change and thread.pending_grant is None:
            return None  # grant being removed at the boundary
        return thread.deadline

    def _next_deadline_after(self, thread: SimThread, now: int) -> int:
        """The deadline the thread will have after its next boundary."""
        if thread.period_start > now:
            return thread.deadline
        period = thread.grant.period if thread.grant is not None else units.INFINITE
        if thread.has_pending_change and thread.pending_grant is not None:
            period = thread.pending_grant.period
        return thread.deadline + thread.postpone_next + period

    def _earliest_preempting_boundary(
        self, thread: SimThread, now: int, limit: int
    ) -> int | None:
        """Rule (2): the beginning of a new period for another thread
        whose next-period end precedes the running thread's period end.

        Read off the boundary heap, which holds every thread's fresh
        allocation: heads below ``limit`` (exclusive) are met in time
        order, stale ones dropped as :meth:`_unallocated_timer` drops
        them, and valid ones that do not preempt — the running
        thread's own, one not after ``now``, one whose next deadline is
        no earlier — set aside and pushed back.
        """
        heap = self._boundary_heap
        kept: list[tuple[int, int, SimThread]] = []
        found: int | None = None
        while heap and heap[0][0] < limit:
            boundary, _, other = heap[0]
            if self._fresh_allocation_time(other, now) != boundary:
                heappop(heap)
                if other.queued_boundary == boundary:
                    other.queued_boundary = -1
                continue
            if (
                other is not thread
                and boundary > now
                and self._next_deadline_after(other, now) < thread.deadline
            ):
                found = boundary
                break
            kept.append(heappop(heap))
        for entry in kept:
            heappush(heap, entry)
        return found

    def snapshot(self, now: int) -> dict:
        """Debug view of the scheduler's queues at ``now``.

        Mirrors the paper's description: the deadline-ordered
        TimeRemaining queue, the TimeExpired set, the OvertimeRequested
        subset, and any grants awaiting unallocated time.
        """
        remaining = self.time_remaining_queue(now)
        overtime = self.overtime_queue(now)
        expired = [
            t
            for t in self.kernel.periodic_threads()
            if t.state is STATE_ACTIVE
            and t.period_started(now)
            and not t.eligible_time_remaining(now)
        ]
        return {
            "now": now,
            "time_remaining": [(t.tid, t.name, t.deadline, t.remaining) for t in remaining],
            "time_expired": [(t.tid, t.name, t.deadline) for t in expired],
            "overtime_requested": [(t.tid, t.name, t.deadline) for t in overtime],
            "pending_activation": sorted(self._pending_activation),
        }

    def preemption_imminent(self, thread: SimThread, now: int) -> bool:
        """Would the scheduler hand the CPU to a different thread now?
        Used only to decide whether a grace period is worth starting."""
        if self._pending_activation:
            return True
        return earlier_time_remaining(thread, self.kernel.periodic_threads(), now)
