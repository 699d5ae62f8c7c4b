"""EDF without grant enforcement.

The control baseline: classic dynamic-priority EDF where every task
simply runs until its work is done, earliest deadline first.  Optimal in
underload (Liu & Layland), but with no admission control and no
enforcement a transient overload produces cascading ("domino") deadline
misses across the whole task set — exactly the failure the Resource
Distributor's first principles rule out.
"""

from __future__ import annotations

from repro.baselines.base import BaselineSystem, EnforcingEdfPolicy
from repro.core.threads import SimThread, edf_key


class NaiveEdfPolicy(EnforcingEdfPolicy):
    """EDF over pending work, ignoring grant budgets entirely."""

    def pick(self, now: int) -> SimThread:
        runnable = sorted(
            (t for t in self.kernel.periodic_threads() if self._runnable(t, now)),
            key=edf_key,
        )
        return runnable[0] if runnable else self.kernel.idle

    def timer_for(self, thread: SimThread, now: int) -> int:
        if thread.is_idle or not self._runnable(thread, now):
            return self._unallocated_timer(thread, now)
        # No grant end: run until our own deadline or until a thread
        # with an earlier deadline gets a fresh period.
        limit = thread.deadline
        boundary = self._earliest_preempting_boundary(thread, now, limit)
        return boundary if boundary is not None else limit

    def preemption_imminent(self, thread: SimThread, now: int) -> bool:
        for other in self.kernel.periodic_threads():
            if other is thread:
                continue
            if self._runnable(other, now) and edf_key(other) < edf_key(thread):
                return True
        return False


class NaiveEdfSystem(BaselineSystem):
    """Admit-everything EDF without enforcement."""

    policy_class = NaiveEdfPolicy
