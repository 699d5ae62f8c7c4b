"""Shared machinery for baseline schedulers.

A baseline system pairs a scheduler policy with a simple admission
facade.  Every baseline policy is an :class:`EnforcingEdfPolicy`: the
Resource Distributor's own Scheduler (``repro.core.scheduler``) with
the small-overlap override off and no Resource Manager, so it gets the
kernel's hooks, lazy heaps and hold rule, and a baseline overrides only
what makes it that baseline — its pick order (SMART, naive EDF,
Rate-Monotonic) or its period-open rule (Rialto).  Unlike the Resource
Distributor, baselines hand a thread its reservation directly at
admission time — none of them has the RD's unallocated-time activation
dance, which is part of what the paper is comparing.
"""

from __future__ import annotations

from repro.config import MachineConfig, SimConfig
from repro.core.grants import Grant
from repro.core.kernel import Kernel
from repro.core.scheduler import RDScheduler
from repro.core.threads import STATE_ACTIVE, STATE_EXITED, SimThread
from repro.sim.trace import TraceRecorder
from repro.tasks.base import TaskDefinition


class EnforcingEdfPolicy(RDScheduler):
    """EDF with grant enforcement and overtime, minus the RD's Resource
    Manager coordination: nothing ever notifies it of a grant set, so
    its pick never takes the unallocated-time callback.  This is the
    Reserves baseline, and the base of the others."""

    def __init__(self, kernel: Kernel) -> None:
        super().__init__(kernel)
        self.overlap_override_ticks = 0

    def _runnable(self, thread: SimThread, now: int) -> bool:
        """Has work in a started period, grant budget or not: the test
        of the policies that do not enforce grants (naive EDF, SMART's
        fair share)."""
        return (
            thread.state is STATE_ACTIVE
            and thread.period_started(now)
            and thread.has_pending_work()
            and not thread.declared_done
        )


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

    def _committed_rates(self, thread: SimThread) -> list[float]:
        """The reservations of every live thread other than ``thread``."""
        return [
            t.grant.rate
            for t in self.kernel.periodic_threads()
            if t is not thread and t.grant is not None and t.state is not STATE_EXITED
        ]

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
