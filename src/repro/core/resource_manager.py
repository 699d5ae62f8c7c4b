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
from dataclasses import dataclass
from typing import Iterator

from repro.core.admission import AdmissionController
from repro.core.grant_control import GrantController, GrantRequest, GrantSetResult
from repro.core.kernel import Kernel
from repro.core.policy_box import PolicyBox
from repro.core.scheduler import RDScheduler
from repro.core.threads import STATE_EXITED, STATE_QUIESCENT, SimThread
from repro.errors import AdmissionError, ResourceListError
from repro.obs.events import AdmissionEvent, GrantRecomputeEvent
from repro.tasks.base import TaskDefinition


@dataclass
class _AdmittedRecord:
    thread: SimThread
    definition: TaskDefinition
    quiescent: bool

    def request(self) -> GrantRequest:
        """The grant request this record stands for, built afresh."""
        return GrantRequest(
            thread_id=self.thread.tid,
            policy_id=self.thread.policy_id,
            resource_list=self.definition.resource_list,
            quiescent=self.quiescent,
        )


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

    @property
    def grant_utilization(self) -> float:
        """Fraction of granted time the thread actually consumed."""
        if self.granted_ticks == 0:
            return 0.0
        return self.used_ticks / self.granted_ticks


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
        #: Admitted threads in tid order: tids are allocated monotonically
        #: and a record is inserted only at admission, so insertion order
        #: is tid order and the per-op walks below need no sort.
        self._records: dict[int, _AdmittedRecord] = {}
        #: Each admitted thread's standing grant request, keyed and
        #: ordered like ``_records``.  Written only by the ops that change
        #: a request — admit, exit, quiesce, wake, change_resource_list —
        #: so a recompute reads it without a per-thread call.
        self._grant_requests: dict[int, GrantRequest] = {}
        self.last_result: GrantSetResult | None = None
        #: Optional telemetry bus; set alongside :attr:`Kernel.obs`.
        self.obs = None
        #: Optional phase profiler; set alongside :attr:`Kernel.prof`.
        self.prof = None
        #: Memoization signature of the population the last grant set
        #: was computed for: (policy revision, capacity, the grant
        #: requests in tid order).  A request compares its (tid, policy
        #: id, resource list, quiescent) fields; holding the resource-list
        #: objects keeps the comparison sound (no id reuse) and
        #: invalidates whenever a list is replaced.
        self._memo_signature: tuple | None = None
        #: Number of grant-set computations actually performed.
        self.recompute_count = 0
        #: Number of :meth:`_recompute` calls served from the memo.
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
        record = _AdmittedRecord(
            thread=thread,
            definition=definition,
            quiescent=definition.start_quiescent,
        )
        self._records[thread.tid] = record
        self._grant_requests[thread.tid] = record.request()
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
        record = self._record(tid)
        thread = record.thread
        del self._records[tid]
        del self._grant_requests[tid]
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
        record = self._record(tid)
        if record.quiescent:
            return
        record.quiescent = True
        self._grant_requests[tid] = record.request()
        if record.thread.in_period:
            record.thread.pending_state = STATE_QUIESCENT
        else:
            record.thread.state = STATE_QUIESCENT
        self._recompute()

    def wake(self, tid: int) -> None:
        """A quiescent task is ready to run again.

        Guaranteed to succeed: at worst, every thread drops to its
        minimum entry, which admission control has already reserved.
        """
        record = self._record(tid)
        if not record.quiescent:
            return
        record.quiescent = False
        self._grant_requests[tid] = record.request()
        record.thread.pending_state = None
        self._recompute()

    def change_resource_list(self, tid: int, definition: TaskDefinition) -> None:
        """Replace a task's resource list (re-running admission)."""
        record = self._record(tid)
        self._validate_definition(definition)
        minimum = definition.resource_list.minimum
        self.admission.change_min_rate(tid, minimum.rate, minimum.bandwidth)
        record.definition = definition
        record.thread.definition = definition
        self._grant_requests[tid] = record.request()
        self._recompute()

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
        if self._records:
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

    def _signature(self) -> tuple:
        return (
            self.policy_box.revision,
            self.grant_control.capacity,
            tuple(self._grant_requests.values()),
        )

    def _recompute(self) -> None:
        if self._defer_depth:
            self._defer_dirty = True
            return
        prof = self.prof
        if prof:
            prof.begin("rm.recompute")
            try:
                self._recompute_now()
            finally:
                prof.end("rm.recompute")
            return
        self._recompute_now()

    def _recompute_now(self) -> None:
        signature = self._signature()
        if (
            self.last_result is not None
            and self._memo_signature is not None
            and signature == self._memo_signature
        ):
            # Population, resource lists, and policy tables are unchanged
            # since the last computation: the grant set is a pure function
            # of them, so reuse it.  The scheduler is still notified (a
            # no-op diff that re-asserts in-flight pending state).
            self.memo_hits += 1
            if self.kernel.sanitizer is not None:
                fresh = self.grant_control.compute(
                    self._requests(), observe=False
                )
                self.kernel.sanitizer.on_memo_reuse(
                    self.last_result, fresh, self.kernel.now
                )
            self.scheduler.notify_grant_set(self.last_result)
            return
        requests = self._requests()
        result = self.grant_control.compute(requests)
        self.recompute_count += 1
        self._memo_signature = signature
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

    def _record(self, tid: int) -> _AdmittedRecord:
        try:
            return self._records[tid]
        except KeyError:
            raise AdmissionError(f"thread {tid} is not admitted") from None

    # -- introspection ------------------------------------------------------

    def admitted_ids(self) -> tuple[int, ...]:
        return tuple(self._records)

    def is_quiescent(self, tid: int) -> bool:
        return self._record(tid).quiescent

    def usage(self, tid: int) -> "UsageRecord":
        """Accounting for one admitted thread.

        The paper's Scheduler "passes accounting information to the
        Resource Manager"; here the kernel maintains the counters and
        the RM exposes them — the application-visible answer to "what
        did my grants actually deliver?"
        """
        record = self._record(tid)
        thread = record.thread
        return UsageRecord(
            thread_id=tid,
            name=thread.name,
            periods=thread.periods_completed,
            granted_ticks=thread.total_granted_ticks,
            used_ticks=thread.total_used_ticks,
            overtime_ticks=thread.total_overtime_ticks,
            quiescent=record.quiescent,
        )

    def usage_summary(self) -> list["UsageRecord"]:
        """Accounting for the whole admitted population."""
        return [self.usage(tid) for tid in sorted(self._records)]

    def capacity_snapshot(self) -> CapacitySnapshot:
        """Capacity/headroom introspection for coordinators above core.

        Derived entirely from admission sums and the last grant set, so
        it costs O(admitted) and never perturbs scheduling state.
        """
        histogram: dict[int, int] = {}
        degraded = 0
        qos_sum = 0.0
        granted = 0
        if self.last_result is not None:
            for grant in self.last_result.grant_set:
                record = self._records.get(grant.thread_id)
                if record is None:
                    continue
                granted += 1
                histogram[grant.entry_index] = histogram.get(grant.entry_index, 0) + 1
                if grant.entry_index > 0:
                    degraded += 1
                maximum = record.definition.resource_list.maximum.rate
                if maximum > 0:
                    qos_sum += grant.entry.rate / maximum
        return CapacitySnapshot(
            capacity=self.admission.capacity,
            committed=self.admission.committed,
            headroom=self.admission.headroom,
            bandwidth_capacity=self.admission.bandwidth_capacity,
            committed_bandwidth=self.admission.committed_bandwidth,
            admitted=len(self._records),
            quiescent=sum(1 for r in self._records.values() if r.quiescent),
            degraded=degraded,
            qos_levels=tuple(sorted(histogram.items())),
            qos_fraction=qos_sum / granted if granted else 1.0,
        )
