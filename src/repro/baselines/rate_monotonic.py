"""Rate-Monotonic scheduling (Liu & Layland 1973).

The classic fixed-priority alternative to EDF: shorter period = higher
priority, priorities never change.  Included as a baseline because it
frames the RD's choice of EDF: RM's admission must either use the
conservative Liu-Layland utilization bound ``n(2^(1/n) - 1)`` (~69 % as
n grows) — leaving capacity unusable that EDF admits and guarantees —
or run a full response-time analysis.  We implement the classic bound,
plus enforcement so an overrunning task cannot break lower-priority
reservations.
"""

from __future__ import annotations

from repro import units
from repro.baselines.base import BaselineSystem, EnforcingEdfPolicy
from repro.core.grants import Grant
from repro.core.threads import SimThread, scan_overtime, scan_time_remaining
from repro.errors import AdmissionError


def liu_layland_bound(n: int) -> float:
    """The RM schedulability bound for ``n`` tasks."""
    if n <= 0:
        return 0.0
    return n * (2.0 ** (1.0 / n) - 1.0)


def _priority_key(thread: SimThread) -> tuple[int, int]:
    """Fixed priority: shortest period wins; ties by thread id."""
    period = thread.grant.period if thread.grant is not None else units.INFINITE
    return (period, thread.tid)


class RateMonotonicPolicy(EnforcingEdfPolicy):
    """Fixed-priority preemptive scheduling with grant enforcement."""

    def pick(self, now: int) -> SimThread:
        # The EDF queues' members, taken in priority order instead.
        for scan in (scan_time_remaining, scan_overtime):
            queue = scan(self.kernel.periodic_threads(), now)
            if queue:
                return min(queue, key=_priority_key)
        return self.kernel.idle

    def timer_for(self, thread: SimThread, now: int) -> int:
        if thread.is_idle or not thread.eligible_time_remaining(now):
            return self._unallocated_timer(thread, now)
        grant_end = now + thread.remaining
        limit = min(grant_end, thread.deadline)
        # A fresh period of any *higher-priority* (shorter-period)
        # thread preempts.
        my_period = thread.grant.period if thread.grant else units.INFINITE
        best = limit
        for other in self.kernel.periodic_threads():
            if other is thread or other.grant is None:
                continue
            if (other.grant.period, other.tid) >= (my_period, thread.tid):
                continue
            boundary = self._fresh_allocation_time(other, now)
            if boundary is not None and now < boundary < best:
                best = boundary
        return best

    def preemption_imminent(self, thread: SimThread, now: int) -> bool:
        for other in self.kernel.periodic_threads():
            if other is thread:
                continue
            if other.eligible_time_remaining(now) and _priority_key(other) < _priority_key(thread):
                return True
        return False


class RateMonotonicSystem(BaselineSystem):
    """RM scheduling with Liu-Layland utilization-bound admission."""

    policy_class = RateMonotonicPolicy

    def _admission_check(self, thread: SimThread, grant: Grant) -> None:
        existing = self._committed_rates(thread)
        n = len(existing) + 1
        total = sum(existing) + grant.rate
        bound = min(liu_layland_bound(n), self.machine.schedulable_capacity)
        if total > bound + 1e-9:
            raise AdmissionError(
                f"Rate-Monotonic denies {thread.name!r}: utilization {total:.1%} "
                f"exceeds the Liu-Layland bound {bound:.1%} for {n} tasks"
            )
