"""The ETI Resource Distributor: the library's main entry point.

Wires together the three components of Figure 2 — the Resource Manager,
the Scheduler, and the Policy Box — over a simulated MAP1000 and exposes
a compact public API::

    rd = ResourceDistributor()
    mpeg = rd.admit(mpeg_definition)
    rd.at(ms_to_ticks(100), lambda: rd.wake(modem.tid), "phone rings")
    rd.run_for(sec_to_ticks(1))
    print(rd.trace.misses())
"""

from __future__ import annotations

from typing import Callable

from repro.config import MachineConfig, SimConfig
from repro.core.grants import GrantSet
from repro.core.kernel import Kernel
from repro.core.policy_box import PolicyBox
from repro.core.resource_manager import ResourceManager
from repro.core.scheduler import RDScheduler
from repro.core.threads import STATE_EXITED, SimThread
from repro.sim.trace import TraceRecorder
from repro.tasks.base import TaskDefinition


class ResourceDistributor:
    """Resource Manager + Scheduler + Policy Box over a simulated machine."""

    def __init__(
        self,
        machine: MachineConfig | None = None,
        sim: SimConfig | None = None,
        sanitize: bool = False,
        sanitize_strict: bool = True,
        obs=None,
    ) -> None:
        """``obs`` is an optional telemetry bus — an
        :class:`repro.obs.events.ObsBus`, a node-scoped view of one, or
        an :class:`repro.obs.session.ObsSession` (its bus is used).
        None (the default) leaves every hook site uninstrumented."""
        self.machine = machine or MachineConfig()
        self.sim = sim or SimConfig()
        self.kernel = Kernel(self.machine, self.sim)
        self.policy_box = PolicyBox(capacity=self.machine.schedulable_capacity)
        self.scheduler = RDScheduler(self.kernel)
        self.resource_manager = ResourceManager(
            self.kernel, self.scheduler, self.policy_box
        )
        self.kernel.crash_handler = self._on_crash
        self.obs = getattr(obs, "bus", obs)
        if self.obs is not None:
            self.kernel.obs = self.obs
            self.resource_manager.obs = self.obs
            self.policy_box.obs = self.obs
            self.policy_box.clock = lambda: self.kernel.now
        self.sanitizer = None
        if sanitize:
            self.attach_sanitizer(sanitize_strict)

    def attach_sanitizer(self, strict: bool) -> None:
        """Wire an invariant sanitizer into the kernel's hook slot.  A
        non-strict one logs a violation (as an obs event, when a bus is
        attached) instead of aborting the run."""
        # Imported lazily: repro.metrics.report (pulled in by the
        # metrics package) sits above core in the layering.
        from repro.metrics.sanitizer import InvariantSanitizer

        self.sanitizer = InvariantSanitizer(
            self.kernel, self.resource_manager, strict=strict
        )
        self.kernel.sanitizer = self.sanitizer
        self.sanitizer.obs = self.obs

    def attach_prof(self, prof) -> None:
        """Wire a phase profiler (duck-typed ``begin``/``end``, e.g.
        :class:`repro.obs.prof.PhaseProfiler`) into every hook slot.

        Mirrors the obs wiring: core never imports the profiler — it
        only holds ``prof`` attributes that default to ``None``, so an
        unprofiled run costs one falsy branch per hook site."""
        prof = getattr(prof, "phases", prof)
        self.kernel.prof = prof
        self.resource_manager.prof = prof
        self.resource_manager.grant_control.prof = prof
        self.policy_box.prof = prof

    def _on_crash(self, thread: SimThread, exc: Exception) -> None:
        """A task raised: release its admission so its capacity flows
        back to the survivors.  Sporadic tasks just exit."""
        if thread.tid in self.resource_manager.admitted_ids():
            self.resource_manager.exit_thread(thread.tid)
        else:
            thread.state = STATE_EXITED

    # -- task lifecycle -------------------------------------------------------

    def admit(self, definition: TaskDefinition) -> SimThread:
        """Request admittance for a task (raises AdmissionError on denial)."""
        return self.resource_manager.request_admittance(definition)

    def admit_many(self, definitions: list[TaskDefinition]) -> list[SimThread]:
        """Admit a batch of tasks with one grant-set recomputation.

        Each admission runs the normal O(1) test and raises
        :class:`AdmissionError` exactly as :meth:`admit` does, but the
        grant-set recomputation is deferred until the whole batch is
        admitted — an N-task startup burst costs one computation instead
        of N.  On a mid-batch denial the tasks already admitted keep
        their admission and receive their grants.
        """
        threads = []
        with self.resource_manager.deferred_recompute():
            for definition in definitions:
                threads.append(self.resource_manager.request_admittance(definition))
        return threads

    def exit_thread(self, tid: int) -> None:
        self.resource_manager.exit_thread(tid)

    def enter_quiescent(self, tid: int) -> None:
        self.resource_manager.enter_quiescent(tid)

    def wake(self, tid: int) -> None:
        self.resource_manager.wake(tid)

    def spawn_sporadic(self, name: str, function) -> SimThread:
        """Create a sporadic task (runs only via Sporadic Server grants)."""
        return self.kernel.create_sporadic(name, function)

    # -- runtime policy changes --------------------------------------------------

    def set_policy_override(self, rankings: dict[int, float]) -> None:
        """Install a user policy override and re-apply it immediately.

        Grants change only at period boundaries / unallocated time, so
        the override never disturbs a grant already promised.
        """
        self.policy_box.set_override(rankings)
        self.resource_manager.policy_changed()

    def clear_policy_override(self, policy_ids) -> None:
        """Remove an override, restoring the designer default."""
        self.policy_box.clear_override(policy_ids)
        self.resource_manager.policy_changed()

    # -- running -----------------------------------------------------------------

    def run_for(self, ticks: int) -> None:
        self.kernel.run_for(ticks)

    def run_until(self, time: int) -> None:
        self.kernel.run_until(time)

    def at(self, time: int, action: Callable[[], None], label: str = "") -> None:
        """Schedule an external event (user input, phone call, arrival)."""
        self.kernel.at(time, action, label)

    # -- introspection ---------------------------------------------------------------

    @property
    def now(self) -> int:
        return self.kernel.now

    @property
    def trace(self) -> TraceRecorder:
        return self.kernel.trace

    @property
    def current_grant_set(self) -> GrantSet | None:
        result = self.resource_manager.last_result
        return result.grant_set if result is not None else None

    def capacity_snapshot(self):
        """Capacity/headroom/QOS introspection (see
        :class:`repro.core.resource_manager.CapacitySnapshot`) — the
        hook a multi-node coordinator polls for load feedback."""
        return self.resource_manager.capacity_snapshot()

    def thread(self, tid: int) -> SimThread:
        return self.kernel.thread(tid)
