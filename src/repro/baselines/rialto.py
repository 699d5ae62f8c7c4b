"""Rialto-style scheduler (Jones et al. 1995-1997).

Rialto combines CPU reservations with per-request *time constraints*:
each iteration, an activity asks "can I have C units of CPU by deadline
D?" and the scheduler answers yes or no up front, scheduling granted
constraints with minimum-laxity/EDF order.

The failure mode the RD paper targets is not that constraints miss —
they rarely do — but *who* gets told no: "the application that has just
been denied service was selected by an accident of timing.  The user
might instead prefer that some other application degrade its service."
A denial is also delivered to the requester only, with no mechanism for
asking a different task to shed load instead.

Model: at every period boundary a thread requests a constraint for its
entry's CPU within the period.  Requests are evaluated in arrival
order against the capacity already promised to overlapping constraints;
a denied thread skips its work for that period (the application sheds
the whole frame).  Denials are recorded per thread, so benches can show
the deny-set being determined by phase/arrival order rather than policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines.base import BaselineSystem, EnforcingEdfPolicy
from repro.core.grants import Grant
from repro.core.threads import SimThread


@dataclass
class _Constraint:
    thread_id: int
    start: int
    deadline: int
    cpu: int


@dataclass
class DenialLog:
    """Per-thread record of constraint grants and denials."""

    granted: dict[int, int] = field(default_factory=dict)
    denied: dict[int, int] = field(default_factory=dict)

    def record(self, tid: int, granted: bool) -> None:
        bucket = self.granted if granted else self.denied
        bucket[tid] = bucket.get(tid, 0) + 1


class RialtoPolicy(EnforcingEdfPolicy):
    """Enforcing EDF over granted constraints; denial at request time."""

    def __init__(self, kernel) -> None:
        self.log = DenialLog()
        self._constraints: list[_Constraint] = []
        super().__init__(kernel)

    # -- constraint admission (kernel period-open hook) -------------------------

    def on_period_open(self, thread: SimThread) -> None:
        super().on_period_open(thread)
        now = thread.period_start
        self._constraints = [c for c in self._constraints if c.deadline > now]
        window = thread.deadline - thread.period_start
        committed = sum(
            c.cpu / (c.deadline - c.start)
            for c in self._constraints
            if c.thread_id != thread.tid
        )
        rate = thread.grant.cpu_ticks / window
        capacity = self.kernel.machine.schedulable_capacity
        if committed + rate <= capacity + 1e-9:
            self._constraints.append(
                _Constraint(
                    thread_id=thread.tid,
                    start=thread.period_start,
                    deadline=thread.deadline,
                    cpu=thread.grant.cpu_ticks,
                )
            )
            self.log.record(thread.tid, granted=True)
        else:
            # Denied: the application sheds this whole iteration.  The
            # thread keeps its reservation bookkeeping but does no work,
            # so the period closes as "declared done" (a shed frame, not
            # a missed deadline the scheduler is charged with).
            thread.remaining = 0
            thread.declared_done = True
            thread.wants_overtime = False
            self.log.record(thread.tid, granted=False)


class RialtoSystem(BaselineSystem):
    """Reservations + per-period constraints with arrival-order denial."""

    policy_class = RialtoPolicy

    def _admission_check(self, thread: SimThread, grant: Grant) -> None:
        # Rialto accepts the task; feasibility is tested per-constraint.
        return

    @property
    def denials(self) -> DenialLog:
        policy: RialtoPolicy = self.policy  # type: ignore[assignment]
        return policy.log
