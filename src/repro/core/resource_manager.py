"""The Resource Manager: admission control and grant control.

An application seeking real-time guarantees "requests admittance" with a
resource list.  The Resource Manager:

* runs the O(1) admission test over *minimum* entries (runnable and
  quiescent threads both count — section 4.1);
* computes a new grant set whenever a thread enters or leaves the
  system, changes its resource list, or changes quiescent state;
* consults the Policy Box when not every thread can have its maximum;
* communicates grant changes to the Scheduler in the coordinated way
  that preserves the scheduling guarantees (decreases now, increases at
  unallocated time).

All of this work happens in the context of the requesting application —
never in interrupt mode, never when a deadline is in jeopardy — so the
cost of computing a grant set is never paid with cycles already
committed to an admitted task.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterator

from repro.core.admission import AdmissionController
from repro.core.grant_control import (
    ROUNDING,
    GrantController,
    GrantRequest,
    GrantSetResult,
)
from repro.core.kernel import Kernel
from repro.core.policy_box import PolicyBox
from repro.core.resource_list import ResourceList
from repro.core.scheduler import RDScheduler
from repro.core.threads import STATE_EXITED, STATE_QUIESCENT, SimThread
from repro.errors import AdmissionError, ResourceListError
from repro.obs.events import AdmissionEvent, GrantRecomputeEvent
from repro.sim.phase import phase
from repro.tasks.base import TaskDefinition


@dataclass(frozen=True)
class CapacitySnapshot:
    """Point-in-time capacity/headroom accounting for one distributor.

    The narrow introspection surface a coordinator above core (e.g. a
    cluster broker) needs to reason about placement: how much of the
    schedulable capacity is committed to admitted minima, how much
    headroom remains, and how far the current grant set sits below the
    admitted tasks' maximum entries.  Core computes it; core never
    learns who reads it.
    """

    capacity: float
    committed: float
    headroom: float
    bandwidth_capacity: float
    committed_bandwidth: float
    admitted: int
    quiescent: int
    #: Threads whose current grant entry sits below their maximum entry.
    degraded: int
    #: Histogram of current grant entry indices: (entry_index, count),
    #: sorted by index.  Index 0 is each task's maximum QOS.
    qos_levels: tuple[tuple[int, int], ...]
    #: Sum over granted threads of (granted rate / maximum rate) — the
    #: fraction of requested top QOS the grant set is delivering.
    qos_fraction: float


@dataclass(frozen=True)
class UsageRecord:
    """Per-thread accounting the Resource Manager reports."""

    thread_id: int
    name: str
    periods: int
    granted_ticks: int
    used_ticks: int
    overtime_ticks: int
    quiescent: bool


class ResourceManager:
    """Owns the admitted-task population and its grants."""

    def __init__(
        self,
        kernel: Kernel,
        scheduler: RDScheduler,
        policy_box: PolicyBox,
    ) -> None:
        self.kernel = kernel
        self.scheduler = scheduler
        self.policy_box = policy_box
        capacity = kernel.machine.schedulable_capacity
        bandwidth = kernel.machine.bandwidth_capacity
        self.admission = AdmissionController(capacity, bandwidth)
        self.grant_control = GrantController(capacity, policy_box, bandwidth)
        #: The admitted population: tid -> standing grant request, in tid
        #: order (tids grow and an entry is inserted only at admission).
        #: Only the ops that change a request write it — admit, exit,
        #: quiesce, wake, change_resource_list — so a recompute copies it
        #: with no per-thread call.  The thread is ``kernel.threads[tid]``.
        self._grant_requests: dict[int, GrantRequest] = {}
        #: Running sums of the active (non-quiescent) requests' maximum
        #: entries, rate and bandwidth, kept by the same ops, and a
        #: bound on the rounding the updates have added to them: grant
        #: control skips its Θ(N) underload recount when these prove
        #: the machine overloaded (section 6.2's O(1) check).
        self._max_rate = 0.0
        self._max_bandwidth = 0.0
        self._max_drift = 0.0
        self.last_result: GrantSetResult | None = None
        #: Optional telemetry bus; set alongside :attr:`Kernel.obs`.
        self.obs = None
        #: Optional phase profiler; set alongside :attr:`Kernel.prof`.
        self.prof = None
        #: Number of grant-set computations performed: one per recompute.
        self.recompute_count = 0
        #: Frozen benchmark surface: ``benchmarks/e2e`` reads this name.
        #: A grant set is computed on every request, never remembered, so
        #: it stays 0.
        self.memo_hits = 0
        #: Recompute-deferral nesting depth (see :meth:`deferred_recompute`).
        self._defer_depth = 0
        self._defer_dirty = False

    # -- admission ---------------------------------------------------------

    def request_admittance(self, definition: TaskDefinition) -> SimThread:
        """Admit a task, or raise :class:`AdmissionError`.

        The task is admitted iff the sum of minimum entries of every
        admitted thread (runnable and quiescent), plus this task's
        minimum, fits in the schedulable capacity.  On success the grant
        set is recomputed; the new thread's first grant is delivered the
        next time there is unallocated CPU time.
        """
        self._validate_definition(definition)
        minimum = definition.resource_list.minimum
        if not self.admission.can_admit(minimum.rate, minimum.bandwidth):
            error = (
                f"cannot admit {definition.name!r}: minimum "
                f"({minimum.rate:.1%} CPU, {minimum.bandwidth:.1%} bandwidth) "
                f"does not fit beside the committed "
                f"{self.admission.committed:.1%} CPU / "
                f"{self.admission.committed_bandwidth:.1%} bandwidth "
                f"(capacities {self.admission.capacity:.1%} / "
                f"{self.admission.bandwidth_capacity:.1%})"
            )
            if self.obs:
                self.obs.emit(
                    AdmissionEvent(
                        time=self.kernel.now,
                        task=definition.name,
                        outcome="denied",
                        min_rate=minimum.rate,
                        committed=self.admission.committed,
                        headroom=self.admission.headroom,
                        error=error,
                    )
                )
            raise AdmissionError(error)
        policy_id = self.policy_box.register_task(definition.name)
        thread = self.kernel.create_periodic(definition, policy_id)
        self.admission.admit(thread.tid, minimum.rate, minimum.bandwidth)
        self._grant_requests[thread.tid] = GrantRequest(
            thread.tid, policy_id, definition.resource_list, definition.start_quiescent
        )
        if not definition.start_quiescent:
            self._count_maximum(definition.resource_list, 1.0)
        if self.obs:
            self.obs.emit(
                AdmissionEvent(
                    time=self.kernel.now,
                    task=definition.name,
                    outcome="accepted",
                    thread_id=thread.tid,
                    min_rate=minimum.rate,
                    committed=self.admission.committed,
                    headroom=self.admission.headroom,
                )
            )
        self._recompute()
        return thread

    def _validate_definition(self, definition: TaskDefinition) -> None:
        resource_list = definition.resource_list
        if resource_list is None:
            raise ResourceListError(f"task {definition.name!r} has no resource list")
        if resource_list.minimum.exclusive:
            raise ResourceListError(
                f"task {definition.name!r}: the minimum resource-list entry "
                f"must not require exclusive units, or the admission "
                f"guarantee could not be honoured"
            )
        for entry in resource_list:
            self.kernel.exclusive.validate_units(entry.exclusive)

    # -- lifecycle changes -------------------------------------------------

    def exit_thread(self, tid: int) -> None:
        """A task terminated (naturally or by the user)."""
        request = self._request(tid)
        del self._grant_requests[tid]
        if not request.quiescent:
            self._count_maximum(request.resource_list, -1.0)
        thread = self.kernel.threads[tid]
        self.admission.release(tid)
        if thread.in_period:
            # The grant is guaranteed through the current period; removal
            # takes effect at the boundary.
            thread.pending_state = STATE_EXITED
        else:
            thread.state = STATE_EXITED
            self.kernel.note_periodic_exit(thread)
            self.kernel.exclusive.release_thread(tid)
        self._recompute()

    def enter_quiescent(self, tid: int) -> None:
        """The task stops using resources but keeps its admission.

        Its minimum stays committed in admission control, so it can
        never be denied when it wakes; its grant is released so other
        threads can deliver a higher QOS meanwhile (section 5.3).
        """
        request = self._request(tid)
        if request.quiescent:
            return
        self._grant_requests[tid] = replace(request, quiescent=True)
        self._count_maximum(request.resource_list, -1.0)
        thread = self.kernel.threads[tid]
        if thread.in_period:
            thread.pending_state = STATE_QUIESCENT
        else:
            thread.state = STATE_QUIESCENT
        self._recompute()

    def wake(self, tid: int) -> None:
        """A quiescent task is ready to run again.

        Guaranteed to succeed: at worst, every thread drops to its
        minimum entry, which admission control has already reserved.
        """
        request = self._request(tid)
        if not request.quiescent:
            return
        self._grant_requests[tid] = replace(request, quiescent=False)
        self._count_maximum(request.resource_list, 1.0)
        self.kernel.threads[tid].pending_state = None
        self._recompute()

    def change_resource_list(self, tid: int, definition: TaskDefinition) -> None:
        """Replace a task's resource list (re-running admission)."""
        request = self._request(tid)
        self._validate_definition(definition)
        minimum = definition.resource_list.minimum
        self.admission.change_min_rate(tid, minimum.rate, minimum.bandwidth)
        self.kernel.threads[tid].definition = definition
        self._grant_requests[tid] = replace(
            request, resource_list=definition.resource_list
        )
        if not request.quiescent:
            self._count_maximum(request.resource_list, -1.0)
            self._count_maximum(definition.resource_list, 1.0)
        self._recompute()

    def _count_maximum(self, resource_list: ResourceList, sign: float) -> None:
        """Add (``sign`` 1.0) or take away (-1.0) one active request's
        maximum entry from the running sums.  Each update rounds by less
        than ``ROUNDING`` times its result, which the drift bound takes
        in."""
        rate = self._max_rate + sign * resource_list.rates[0]
        bandwidth = self._max_bandwidth + sign * resource_list.bandwidths[0]
        self._max_rate = rate
        self._max_bandwidth = bandwidth
        self._max_drift += (abs(rate) + abs(bandwidth)) * ROUNDING

    def policy_changed(self) -> None:
        """The Policy Box was modified; recompute grants under it.

        The paper leaves "when should the modification(s) occur to avoid
        affecting current scheduling guarantees?" as an open issue (§7).
        The answer already latent in its own machinery: recomputation
        costs are paid here, in the modifier's context; the Scheduler
        applies decreases at the affected threads' next period
        boundaries and increases at unallocated time — so a policy
        change can never break a guarantee mid-period.
        """
        if self._grant_requests:
            self._recompute()

    # -- grant recomputation -------------------------------------------------

    @contextmanager
    def deferred_recompute(self) -> Iterator[None]:
        """Coalesce grant-set recomputations inside the block.

        Admission/exit/quiescence bursts within a single kernel step
        (e.g. admitting a batch of tasks before the simulation starts)
        trigger one recomputation per call when each is made directly;
        inside this context the recomputations are deferred and a single
        one runs when the outermost block exits.  Nesting is allowed.
        """
        self._defer_depth += 1
        try:
            yield
        finally:
            self._defer_depth -= 1
            if self._defer_depth == 0 and self._defer_dirty:
                self._defer_dirty = False
                self._recompute()

    def _recompute(self) -> None:
        if self._defer_depth:
            self._defer_dirty = True
        else:
            self._recompute_now()

    @phase("rm.recompute")
    def _recompute_now(self) -> None:
        requests = self._requests()
        result = self.grant_control.compute(
            requests, (self._max_rate, self._max_bandwidth, self._max_drift)
        )
        self.recompute_count += 1
        if self.kernel.sanitizer is not None:
            self.kernel.sanitizer.on_grant_set(result)
        self.last_result = result
        if self.obs:
            # Fast-path sets grant every maximum entry (index 0), so no
            # thread is degraded and the delivered QOS fraction is
            # exactly 1.0 — skip the O(admitted) scans.
            if result.passes == 0:
                degraded = 0
                qos_fraction = 1.0
            else:
                degraded = sum(1 for g in result.grant_set if g.entry_index > 0)
                qos_fraction = self.capacity_snapshot().qos_fraction
            self.obs.emit(
                GrantRecomputeEvent(
                    time=self.kernel.now,
                    requests=len(requests),
                    granted=len(result.grant_set),
                    degraded=degraded,
                    passes=result.passes,
                    minimum_fallback=result.minimum_fallback,
                    qos_fraction=qos_fraction,
                    headroom=self.admission.headroom,
                )
            )
        assignment: dict[str, int | None] = {
            unit: None for unit in self.kernel.exclusive.unit_names
        }
        assignment.update(result.exclusive_assignment)
        self.kernel.exclusive.assign(assignment)
        self.scheduler.notify_grant_set(result)

    def _requests(self) -> list[GrantRequest]:
        return list(self._grant_requests.values())

    def _request(self, tid: int) -> GrantRequest:
        try:
            return self._grant_requests[tid]
        except KeyError:
            raise AdmissionError(f"thread {tid} is not admitted") from None

    # -- introspection ------------------------------------------------------

    def admitted_ids(self) -> tuple[int, ...]:
        return tuple(self._grant_requests)

    def usage(self, tid: int) -> "UsageRecord":
        """Accounting for one admitted thread.

        The paper's Scheduler "passes accounting information to the
        Resource Manager"; here the kernel maintains the counters and
        the RM exposes them — the application-visible answer to "what
        did my grants actually deliver?"
        """
        request = self._request(tid)
        thread = self.kernel.threads[tid]
        return UsageRecord(
            thread_id=tid,
            name=thread.name,
            periods=thread.periods_completed,
            granted_ticks=thread.total_granted_ticks,
            used_ticks=thread.total_used_ticks,
            overtime_ticks=thread.total_overtime_ticks,
            quiescent=request.quiescent,
        )

    def capacity_snapshot(self) -> CapacitySnapshot:
        """Capacity/headroom introspection for coordinators above core.

        Derived entirely from admission sums and the last grant set, so
        it costs O(admitted) and never perturbs scheduling state.
        """
        histogram: dict[int, int] = {}
        degraded = 0
        qos_sum = 0.0
        granted = 0
        requests = self._grant_requests
        if self.last_result is not None:
            for grant in self.last_result.grant_set:
                request = requests.get(grant.thread_id)
                if request is None:
                    continue
                granted += 1
                histogram[grant.entry_index] = histogram.get(grant.entry_index, 0) + 1
                if grant.entry_index > 0:
                    degraded += 1
                maximum = request.resource_list.maximum.rate
                if maximum > 0:
                    qos_sum += grant.entry.rate / maximum
        return CapacitySnapshot(
            capacity=self.admission.capacity,
            committed=self.admission.committed,
            headroom=self.admission.headroom,
            bandwidth_capacity=self.admission.bandwidth_capacity,
            committed_bandwidth=self.admission.committed_bandwidth,
            admitted=len(requests),
            quiescent=sum(1 for r in requests.values() if r.quiescent),
            degraded=degraded,
            qos_levels=tuple(sorted(histogram.items())),
            qos_fraction=qos_sum / granted if granted else 1.0,
        )
