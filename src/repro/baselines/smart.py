"""SMART-style scheduler (Nieh & Lam 1996/1997).

SMART integrates conventional and real-time tasks with a value/urgency
scheme over virtual time.  The behaviour the RD paper contrasts with is:

* **underload** — all real-time constraints are met (we schedule EDF);
* **overload** — the scheduler degrades to *weighted fair sharing*:
  every task keeps making proportional progress.  For workstation mixes
  that is a feature; for discrete multimedia tasks it is the problem the
  RD paper calls out ("in SMART, overload is handled with fair-share
  scheduling, which conflicts with the discrete resource requirements of
  our applications"): a task given 70 % of the CPU it needs for a frame
  simply misses the frame, so in overload *every* task misses deadlines
  rather than a user-chosen task shedding load cleanly.

This model keeps SMART's essential mechanism — per-task shares, virtual
time ``vt += used / share``, quantum-based round-robin among the
lowest-virtual-time runnable tasks — without the full value/urgency
machinery (no interactive tasks exist in this workload).
"""

from __future__ import annotations

from repro import units
from repro.baselines.base import BaselineSystem, EnforcingEdfPolicy
from repro.core.grants import Grant
from repro.core.threads import STATE_ACTIVE, SimThread

#: Scheduling quantum used in fair-share mode.
QUANTUM = units.ms_to_ticks(1)


class SmartPolicy(EnforcingEdfPolicy):
    """EDF in underload; weighted fair share (virtual time) in overload."""

    def __init__(self, kernel) -> None:
        super().__init__(kernel)
        self.shares: dict[int, float] = {}
        self._virtual_time: dict[int, float] = {}

    # -- mode selection ------------------------------------------------------

    def _active(self, now: int) -> list[SimThread]:
        return [
            t
            for t in self.kernel.periodic_threads()
            if t.state is STATE_ACTIVE and t.in_period
        ]

    def overloaded(self, now: int) -> bool:
        demand = sum(t.grant.rate for t in self._active(now) if t.grant is not None)
        return demand > self.kernel.machine.schedulable_capacity + 1e-9

    def _runnable(self, thread: SimThread, now: int) -> bool:
        return (
            thread.state is STATE_ACTIVE
            and thread.period_started(now)
            and thread.has_pending_work()
            and not thread.declared_done
        )

    # -- policy interface --------------------------------------------------------

    def pick(self, now: int) -> SimThread:
        if not self.overloaded(now):
            return super().pick(now)
        runnable = [
            t for t in self.kernel.periodic_threads() if self._runnable(t, now)
        ]
        if not runnable:
            return self.kernel.idle
        return min(runnable, key=lambda t: (self._vt(t), t.tid))

    def timer_for(self, thread: SimThread, now: int) -> int:
        if not self.overloaded(now):
            return super().timer_for(thread, now)
        if thread.is_idle or not self._runnable(thread, now):
            return self._unallocated_timer(thread, now)
        # Fair-share mode: quantum slicing, bounded by our own deadline.
        return min(now + QUANTUM, thread.deadline)

    def preemption_imminent(self, thread: SimThread, now: int) -> bool:
        if not self.overloaded(now):
            return super().preemption_imminent(thread, now)
        return any(
            self._runnable(t, now) and self._vt(t) < self._vt(thread)
            for t in self.kernel.periodic_threads()
            if t is not thread
        )

    # -- virtual time ---------------------------------------------------------------

    def _vt(self, thread: SimThread) -> float:
        vt = self._virtual_time.get(thread.tid, 0.0)
        share = self.shares.get(thread.tid, 1.0)
        used = thread.total_used_ticks + thread.used + thread.overtime_used
        return vt + used / share

    def charge_baseline(self, thread: SimThread) -> None:
        """Reset a thread's virtual-time origin (admission)."""
        if self._virtual_time or any(
            t.tid != thread.tid for t in self.kernel.periodic_threads()
        ):
            floor = min(
                (
                    self._vt(t)
                    for t in self.kernel.periodic_threads()
                    if t is not thread and t.state is STATE_ACTIVE
                ),
                default=0.0,
            )
            self._virtual_time[thread.tid] = floor


class SmartSystem(BaselineSystem):
    """SMART-style scheduling with per-task shares."""

    policy_class = SmartPolicy

    def admit(self, definition, entry_index: int = 0, share: float = 1.0) -> SimThread:
        thread = super().admit(definition, entry_index)
        policy: SmartPolicy = self.policy  # type: ignore[assignment]
        policy.shares[thread.tid] = share
        policy.charge_baseline(thread)
        return thread

    def _admission_check(self, thread: SimThread, grant: Grant) -> None:
        # SMART has no admission control: a best-effort policy accepts
        # everything and shares in overload.
        return
