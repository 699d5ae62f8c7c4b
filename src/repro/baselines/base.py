"""Shared machinery for baseline schedulers.

A baseline system pairs a scheduler policy (implementing the kernel's
``pick``/``timer_for``/``preemption_imminent`` interface) with a simple
admission facade.  Unlike the Resource Distributor, baselines hand a
thread its reservation directly at admission time — none of them has the
RD's unallocated-time activation dance, which is part of what the paper
is comparing.
"""

from __future__ import annotations

from repro import units
from repro.config import MachineConfig, SimConfig
from repro.core.grants import Grant
from repro.core.kernel import Kernel
from repro.core.threads import STATE_ACTIVE, SimThread
from repro.sim.trace import TraceRecorder
from repro.tasks.base import TaskDefinition


def edf_key(thread: SimThread) -> tuple[int, int]:
    return (thread.deadline, thread.tid)


class EnforcingEdfPolicy:
    """EDF with grant enforcement and overtime, minus the RD's Resource
    Manager coordination.  This is the scheduling core shared by the
    Reserves baseline (and reused by others via subclassing)."""

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        kernel.bind_policy(self)

    # -- queue views -------------------------------------------------------

    def _time_remaining(self, now: int) -> list[SimThread]:
        return sorted(
            (
                t
                for t in self.kernel.periodic_threads()
                if t.eligible_time_remaining(now)
            ),
            key=edf_key,
        )

    def _overtime(self, now: int) -> list[SimThread]:
        return sorted(
            (t for t in self.kernel.periodic_threads() if t.eligible_overtime(now)),
            key=edf_key,
        )

    # -- policy interface ------------------------------------------------------

    def pick(self, now: int) -> SimThread:
        remaining = self._time_remaining(now)
        if remaining:
            return remaining[0]
        overtime = self._overtime(now)
        if overtime:
            return overtime[0]
        return self.kernel.idle

    def timer_for(self, thread: SimThread, now: int) -> int:
        if thread.is_idle or not thread.eligible_time_remaining(now):
            return self._unallocated_timer(thread, now)
        grant_end = now + thread.remaining
        limit = min(grant_end, thread.deadline)
        boundary = self._earliest_preempting_boundary(thread, now, limit)
        return boundary if boundary is not None else limit

    def preemption_imminent(self, thread: SimThread, now: int) -> bool:
        for other in self.kernel.periodic_threads():
            if other is thread:
                continue
            if other.eligible_time_remaining(now):
                if not thread.eligible_time_remaining(now):
                    return True
                if edf_key(other) < edf_key(thread):
                    return True
        return False

    # -- timer helpers --------------------------------------------------------

    def _boundary(self, thread: SimThread, now: int) -> int | None:
        if thread.state is not STATE_ACTIVE or not thread.in_period:
            return None
        return thread.period_start if thread.period_start > now else thread.deadline

    def _unallocated_timer(self, thread: SimThread, now: int) -> int:
        stop = units.INFINITE
        if not thread.is_idle and thread.in_period:
            stop = thread.deadline
        for other in self.kernel.periodic_threads():
            boundary = self._boundary(other, now)
            if boundary is not None and now < boundary < stop:
                stop = boundary
        return stop

    def _earliest_preempting_boundary(
        self, thread: SimThread, now: int, limit: int
    ) -> int | None:
        best: int | None = None
        for other in self.kernel.periodic_threads():
            if other is thread:
                continue
            boundary = self._boundary(other, now)
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


class BaselineSystem:
    """Admission facade + kernel + policy for one baseline scheduler."""

    policy_class: type = EnforcingEdfPolicy

    def __init__(
        self,
        machine: MachineConfig | None = None,
        sim: SimConfig | None = None,
    ) -> None:
        self.machine = machine or MachineConfig()
        self.sim = sim or SimConfig()
        self.kernel = Kernel(self.machine, self.sim)
        self.policy = self.policy_class(self.kernel)

    # -- admission ----------------------------------------------------------------

    def admit(self, definition: TaskDefinition, entry_index: int = 0) -> SimThread:
        """Admit a task using resource-list entry ``entry_index`` as its
        request/reservation.  Baselines have no concept of the RD's
        multi-level lists; the caller picks the level."""
        thread = self.kernel.create_periodic(definition, policy_id=-1)
        entry = definition.resource_list[entry_index]
        grant = Grant(thread_id=thread.tid, entry=entry, entry_index=entry_index)
        self._admission_check(thread, grant)
        self.kernel.start_first_period(thread, grant, self.kernel.now)
        return thread

    def _admission_check(self, thread: SimThread, grant: Grant) -> None:
        """Override to enforce an admission test (default: admit all)."""

    # -- running --------------------------------------------------------------------

    def run_for(self, ticks: int) -> None:
        self.kernel.run_for(ticks)

    def run_until(self, time: int) -> None:
        self.kernel.run_until(time)

    def at(self, time: int, action, label: str = "") -> None:
        self.kernel.at(time, action, label)

    @property
    def now(self) -> int:
        return self.kernel.now

    @property
    def trace(self) -> TraceRecorder:
        return self.kernel.trace
