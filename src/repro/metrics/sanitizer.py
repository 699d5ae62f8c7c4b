"""Runtime invariant sanitizer: live enforcement of the RD's guarantees.

:mod:`repro.metrics.validate` audits a *finished* trace; this module
checks the same family of invariants **while the simulation runs**, at
every scheduling decision, so a violation is caught at the instant it
happens — with the live scheduler state still inspectable — instead of
thousands of ticks later in a post-mortem.

The sanitizer is opt-in (``ResourceDistributor(..., sanitize=True)`` or
``--sanitize`` on the CLI) because it re-derives every decision from
scratch: a dispatch costs one pass over the periodic threads and one
over the admitted tids.  Neither makes a Python call per thread
(``tests/test_hot_paths.py`` counts them); only a pick made with the
TimeRemaining queue empty pays a second, per-thread scan, of
OvertimeRequested.  Checked invariants:

* **grant conservation** — every grant set the Resource Manager emits
  fits in the schedulable capacity (Σ rates + interrupt reserve ≤ 1)
  and in the Data Streamer bandwidth budget;
* **EDF ordering** — the thread handed the CPU is the deadline-ordered
  head of the TimeRemaining queue, or of OvertimeRequested when
  TimeRemaining is empty; the Idle thread runs only when both are empty;
* **never-terminated** — an admitted thread is never in the EXITED
  state (admission is a contract; only the task itself or the user ends
  it); each such thread is reported once;
* **per-period grant delivery** — every period of an admitted thread
  that closes non-voided delivered the full grant (no missed
  deadlines), and never more than the grant.

Those are the paper's promises and the only rules it checks.  The
Resource Manager computes every grant set afresh and remembers none, so
there is no cache to police: :meth:`InvariantSanitizer.on_memo_reuse`
survives only as a name the benchmark's tracer wraps, and nothing calls
it.

In strict mode the first violation raises :class:`SanitizerViolation`
with a trace excerpt; otherwise violations accumulate in a
:class:`~repro.metrics.validate.ValidationReport` for inspection.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.threads import STATE_ACTIVE, STATE_EXITED, scan_overtime
from repro.errors import SanitizerViolation
from repro.metrics.validate import ValidationReport, Violation
from repro.obs.events import ViolationEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.grant_control import GrantSetResult
    from repro.core.kernel import Kernel
    from repro.core.resource_manager import ResourceManager
    from repro.core.threads import SimThread

_EPS = 1e-9


class InvariantSanitizer:
    """Checks the Resource Distributor's invariants on every decision.

    Wired into the kernel's dispatch loop (``kernel.sanitizer``) and the
    Resource Manager's grant recomputation.  ``strict=True`` raises
    :class:`SanitizerViolation` on the first breach; ``strict=False``
    collects breaches in :attr:`report`.
    """

    def __init__(
        self,
        kernel: "Kernel",
        resource_manager: "ResourceManager | None" = None,
        strict: bool = True,
    ) -> None:
        self.kernel = kernel
        self.resource_manager = resource_manager
        self.strict = strict
        self.report = ValidationReport()
        #: Number of scheduling decisions audited.
        self.decisions_checked = 0
        #: Number of grant sets audited.
        self.grant_sets_checked = 0
        #: Number of period closes audited.
        self.periods_checked = 0
        #: Admitted tids already reported terminated (each is reported once).
        self._terminated_reported: set[int] = set()
        #: Optional telemetry bus; violations become structured
        #: ``ViolationEvent`` records *before* strict mode raises, so a
        #: ``--sanitize --obs-out`` run leaves a machine-readable log.
        self.obs = None

    @property
    def ok(self) -> bool:
        return self.report.ok

    # -- violation plumbing --------------------------------------------------

    def _fail(self, rule: str, time: int, detail: str) -> None:
        violation = Violation(rule=rule, time=time, detail=detail)
        self.report.violations.append(violation)
        if self.obs:
            self.obs.emit(
                ViolationEvent(time=time, rule=rule, detail=detail, severity="error")
            )
        if self.strict:
            raise SanitizerViolation(f"{violation}\n{self._trace_excerpt()}")

    def _trace_excerpt(self, count: int = 6) -> str:
        """The last few trace records, for post-violation debugging."""
        trace = self.kernel.trace
        lines = ["trace excerpt (most recent last):"]
        for seg in trace.segments[-count:]:
            lines.append(
                f"  seg t={seg.start}..{seg.end} thread={seg.thread_id} "
                f"{seg.kind.value} period={seg.period_index}"
            )
        for d in trace.deadlines[-2:]:
            lines.append(
                f"  deadline thread={d.thread_id} period={d.period_index} "
                f"granted={d.granted} delivered={d.delivered} "
                f"missed={d.missed} voided={d.voided}"
            )
        snapshot = getattr(self.kernel.policy, "snapshot", None)
        if snapshot is not None:
            lines.append(f"  scheduler: {snapshot(self.kernel.now)}")
        return "\n".join(lines)

    # -- hooks ---------------------------------------------------------------

    def on_grant_set(self, result: "GrantSetResult") -> None:
        """Grant conservation: Σ grants + interrupt reserve ≤ capacity."""
        self.grant_sets_checked += 1
        machine = self.kernel.machine
        grant_set = result.grant_set
        # Summed here, from the set itself (``entry.rate`` is a stored
        # field): the sum is the check, so it must not reuse the
        # controller's running totals.
        total = sum([g.entry.rate for g in grant_set])
        if total > machine.schedulable_capacity + _EPS:
            self._fail(
                "grant-conservation",
                self.kernel.now,
                f"grant set commits {total:.4f} of the CPU but only "
                f"{machine.schedulable_capacity:.4f} is schedulable "
                f"(interrupt reserve {machine.interrupt_reserve:.2f})",
            )
        bandwidth = sum([g.entry.bandwidth for g in grant_set])
        if bandwidth > machine.bandwidth_capacity + _EPS:
            self._fail(
                "grant-conservation",
                self.kernel.now,
                f"grant set commits {bandwidth:.4f} of the Data Streamer "
                f"bandwidth, over the budget {machine.bandwidth_capacity:.4f}",
            )

    def on_pick(self, chosen: "SimThread", now: int) -> None:
        """EDF ordering of the ready queues + the never-terminated rule.

        Both are re-derived from scratch in one pass each, with no
        Python call per thread: the TimeRemaining head is found by
        testing :meth:`SimThread.eligible_time_remaining`'s predicate
        field by field and keeping the minimum ``(deadline, tid)`` as
        the pass goes.  Only when that queue is empty does the
        OvertimeRequested scan run, calling its predicate per thread.
        The loop that words a never-terminated violation runs only once
        the walk has found one.
        """
        self.decisions_checked += 1
        head = None
        head_deadline = 0
        for t in self.kernel.periodic_threads():
            if (
                t.remaining > 0
                and not t.declared_done
                and t.state is STATE_ACTIVE
                and t.grant is not None
                and t.period_index >= 0
                and t.period_start <= now
            ):
                deadline = t.deadline
                if (
                    head is None
                    or deadline < head_deadline
                    or (deadline == head_deadline and t.tid < head.tid)
                ):
                    head = t
                    head_deadline = deadline
        if head is None:
            self._check_overtime_order(chosen, now)
        elif chosen is not head:
            self._fail(
                "edf-order",
                now,
                f"scheduler picked thread {chosen.tid} ({chosen.name!r}, "
                f"deadline {chosen.deadline}) over TimeRemaining head "
                f"{head.tid} ({head.name!r}, deadline {head.deadline})",
            )
        if self.resource_manager is None:
            return
        admitted = self.resource_manager.admitted_ids()
        for thread in map(self.kernel.threads.get, admitted):
            if thread is None or thread.state is STATE_EXITED:
                self._report_terminated(admitted, now)
                break

    def on_memo_reuse(
        self, cached: "GrantSetResult", fresh: "GrantSetResult", now: int
    ) -> None:
        """Frozen benchmark surface: ``benchmarks/e2e`` wraps this name.
        A grant set is never remembered, so nothing calls it."""

    def on_period_close(
        self, thread: "SimThread", granted: int, delivered: int, missed: bool
    ) -> None:
        """Per-period grant delivery for the period ``thread`` is closing
        (its ``deadline`` and ``period_index`` are still that period's)."""
        self.periods_checked += 1
        if delivered > granted:
            self._fail(
                "grant-delivery",
                thread.deadline,
                f"thread {thread.tid} ({thread.name!r}) period "
                f"{thread.period_index} charged {delivered} granted "
                f"ticks against a {granted}-tick grant",
            )
        if missed:
            self._fail(
                "grant-delivery",
                thread.deadline,
                f"thread {thread.tid} ({thread.name!r}) period "
                f"{thread.period_index} closed with only {delivered} "
                f"of {granted} granted ticks delivered — the "
                f"guarantee of a grant in every period was broken",
            )

    # -- individual checks ---------------------------------------------------

    def _check_overtime_order(self, chosen: "SimThread", now: int) -> None:
        """EDF ordering when TimeRemaining is empty."""
        overtime = scan_overtime(self.kernel.periodic_threads(), now)
        if overtime:
            head = overtime[0]
            if chosen is not head:
                self._fail(
                    "edf-order",
                    now,
                    f"scheduler picked thread {chosen.tid} ({chosen.name!r}) "
                    f"over OvertimeRequested head {head.tid} ({head.name!r}, "
                    f"deadline {head.deadline})",
                )
        elif not chosen.is_idle:
            self._fail(
                "edf-order",
                now,
                f"scheduler picked thread {chosen.tid} ({chosen.name!r}) "
                f"with both queues empty; only Idle may run",
            )

    def _report_terminated(self, admitted: tuple[int, ...], now: int) -> None:
        """Word a never-terminated breach, once per thread: a recording
        sanitizer would otherwise log the same dead thread at every
        later pick."""
        threads = self.kernel.threads
        for tid in admitted:
            if tid in self._terminated_reported:
                continue
            thread = threads.get(tid)
            if thread is None or thread.state is STATE_EXITED:
                self._terminated_reported.add(tid)
                self._fail(
                    "never-terminated",
                    now,
                    f"thread {tid} is still admitted but was terminated "
                    f"({'missing' if thread is None else 'EXITED'}); the "
                    f"system may never end an admitted task",
                )

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.report.violations)} violation(s)"
        lines = [
            f"sanitizer: {status} ({self.decisions_checked} decisions, "
            f"{self.grant_sets_checked} grant sets, "
            f"{self.periods_checked} period closes)"
        ]
        lines.extend(str(v) for v in self.report.violations[:50])
        return "\n".join(lines)
