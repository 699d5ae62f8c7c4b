"""Schedulable entities: per-thread state shared by kernel and policies.

``SimThread`` is deliberately a plain mutable record.  The scheduler
policy (EDF queues, timers) and the kernel (generator driving, grant
accounting, period rollover) both read and write it; keeping the state
in one visible place mirrors the thread-control-block of a real kernel
and makes invariants easy to assert in tests.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Generator, Iterable, Optional

from repro import units
from repro.tasks.base import Op, TaskContext, TaskDefinition

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.grants import Grant
    from repro.tasks.channels import Channel


class ThreadState(enum.Enum):
    ACTIVE = "active"
    BLOCKED = "blocked"
    QUIESCENT = "quiescent"
    EXITED = "exited"


class ThreadKind(enum.Enum):
    PERIODIC = "periodic"
    SPORADIC = "sporadic"
    IDLE = "idle"


# The members, bound once at import: hot paths read these globals, not
# ``ThreadState.ACTIVE``, an unspecialised lookup through the enum
# metaclass that costs an order of magnitude more than a global read on
# CPython 3.11 (DESIGN.md §4 "A hot path reads names").
STATE_ACTIVE = ThreadState.ACTIVE
STATE_BLOCKED = ThreadState.BLOCKED
STATE_QUIESCENT = ThreadState.QUIESCENT
STATE_EXITED = ThreadState.EXITED
THREAD_PERIODIC = ThreadKind.PERIODIC
THREAD_SPORADIC = ThreadKind.SPORADIC
THREAD_IDLE = ThreadKind.IDLE


class SimThread:
    """Thread control block for the simulated system."""

    def __init__(
        self,
        tid: int,
        name: str,
        kind: ThreadKind,
        definition: TaskDefinition | None = None,
        policy_id: int = -1,
    ) -> None:
        self.tid = tid
        self.name = name
        self.kind = kind
        self.definition = definition
        self.policy_id = policy_id
        self.state = STATE_ACTIVE
        #: Fixed at construction: only the kernel's Idle thread is idle.
        self.is_idle = kind is THREAD_IDLE

        # -- grant / period state (periodic threads only) --
        self.grant: Optional["Grant"] = None
        #: Grant to apply at the next period boundary.  ``has_pending_change``
        #: distinguishes "no change" from "change to no grant" (removal).
        self.pending_grant: Optional["Grant"] = None
        self.has_pending_change = False
        #: State to enter when the pending removal takes effect.
        self.pending_state: ThreadState | None = None
        self.period_index = -1
        self.period_start = 0
        self.deadline = units.INFINITE
        self.remaining = 0
        self.used = 0
        self.overtime_used = 0
        self.declared_done = False
        self.wants_overtime = False
        self.blocked_this_period = False
        #: Tick at which this period's work finished — the grant fully
        #: consumed or the task declared done early; -1 while outstanding.
        self.completed_at = -1
        #: InsertIdleCycles accumulation, applied to the next period start.
        self.postpone_next = 0

        # -- generator state --
        self.ctx = TaskContext(kernel=None, thread=self)
        self.gen: Generator[Op, object, None] | None = None
        self.gen_exhausted = False
        self.restart_pending = True
        self.pending_compute = 0
        #: Stats of the period that just closed, for the next delivery.
        self.last_completed = True
        self.last_used = 0

        # -- blocking --
        self.blocked_channel: Optional["Channel"] = None
        #: The kernel's block sequence number of the current (or last)
        #: Block; a waiter entry carrying another number is stale.
        self.block_seq = 0

        # -- scheduler queue stamps --
        #: The deadline for which the policy already holds an entry of
        #: this thread in its ready / overtime / boundary heap (-1: none).
        #: A push for the same deadline is skipped; the stamp is cleared
        #: when that entry is popped, so a later transition re-queues.
        self.queued_ready = -1
        self.queued_overtime = -1
        self.queued_boundary = -1

        # -- sporadic-grant assignment (on the assigning periodic thread) --
        self.assignment_target: Optional["SimThread"] = None
        self.assignment_remaining = 0

        # -- controlled preemption --
        self.grace_pending = False
        self.missed_grace_count = 0

        # -- lifetime stats --
        self.periods_completed = 0
        self.total_granted_ticks = 0
        self.total_used_ticks = 0
        self.total_overtime_ticks = 0

    # -- derived predicates used by scheduler policies ---------------------

    @property
    def in_period(self) -> bool:
        """Does this thread currently hold a grant for an open period?"""
        return self.grant is not None and self.period_index >= 0

    def period_started(self, now: int) -> bool:
        return self.in_period and self.period_start <= now

    def has_pending_work(self) -> bool:
        """Could this thread consume more CPU if it were dispatched?

        True while the generator is alive (suspended at a yield) or a
        compute op is partially consumed — independent of whether the
        thread declared itself done for the period (a done thread with a
        live generator is exactly what OvertimeRequested carries).
        """
        if self.pending_compute > 0:
            return True
        if self.gen is not None and not self.gen_exhausted:
            return True
        # A period whose grant delivery has not started yet (the
        # generator is created lazily at first dispatch) counts as work.
        return (
            self.kind is THREAD_PERIODIC
            and self.in_period
            and self.restart_pending
            and not self.declared_done
        )

    def completed_call(self) -> bool:
        """Did the period's call run to completion (for grant delivery)?"""
        return self.declared_done or self.gen is None or self.gen_exhausted

    def eligible_time_remaining(self, now: int) -> bool:
        """Belongs on the TimeRemaining queue at time ``now``."""
        return (
            self.remaining > 0
            and not self.declared_done
            and self.state is STATE_ACTIVE
            and self.grant is not None
            and self.period_index >= 0
            and self.period_start <= now
        )

    def eligible_overtime(self, now: int) -> bool:
        """Belongs on the OvertimeRequested queue at time ``now``.

        A thread lands here when it "ran out of time and still had more
        work to do" or explicitly asked for overtime; a thread whose
        generator already finished has nothing to run and is excluded.
        """
        if self.is_idle:
            return True
        if (
            self.state is not STATE_ACTIVE
            or self.grant is None
            or self.period_index < 0
            or self.period_start > now
        ):
            return False
        if self.declared_done:
            # An explicit DonePeriod chose whether to request overtime.
            if not self.wants_overtime:
                return False
        elif self.remaining > 0:
            return False  # still on TimeRemaining
        # Otherwise it ran out of granted time: an implicit request,
        # honoured (like the explicit one) only with work left to run.
        return self.has_pending_work()

    def clear_assignment(self) -> None:
        self.assignment_target = None
        self.assignment_remaining = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SimThread {self.tid} {self.name!r} {self.kind.value} "
            f"{self.state.value} period={self.period_index} "
            f"remaining={self.remaining}>"
        )


# -- the EDF queues, scanned ---------------------------------------------------
#
# The baselines' picks, the debug views and grace decisions scan the
# paper's queues here, with the predicates above.  The sanitizer's
# one-pass audit and the test oracles keep their own scans on purpose.


def edf_key(thread: SimThread) -> tuple[int, int]:
    """Deadline order with a stable tid tie-break: every EDF queue's key."""
    return (thread.deadline, thread.tid)


def scan_time_remaining(threads: Iterable[SimThread], now: int) -> list[SimThread]:
    """The TimeRemaining queue at ``now``, in EDF order."""
    return sorted([t for t in threads if t.eligible_time_remaining(now)], key=edf_key)


def scan_overtime(threads: Iterable[SimThread], now: int) -> list[SimThread]:
    """The OvertimeRequested queue at ``now``, in EDF order (Idle is not
    among ``threads``; the caller runs it when this is empty)."""
    return sorted([t for t in threads if t.eligible_overtime(now)], key=edf_key)


def earlier_time_remaining(
    thread: SimThread, threads: Iterable[SimThread], now: int
) -> bool:
    """Does another thread on TimeRemaining come before ``thread`` — an
    earlier ``edf_key``, or any at all while ``thread`` is off the queue?"""
    mine = edf_key(thread) if thread.eligible_time_remaining(now) else None
    for other in threads:
        if other is not thread and other.eligible_time_remaining(now):
            if mine is None or edf_key(other) < mine:
                return True
    return False
