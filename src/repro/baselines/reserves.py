"""Processor Capacity Reserves (Mercer, Savage, Tokuda 1994).

Per-thread CPU reservations, enforced, scheduled EDF on the reservation
period — so a misbehaving task cannot impinge on a reserved one.  The
paper's critique (§3.4/§3.5): reservations are a single number per task,
so "applications are encouraged to over-reserve so that deadlines can be
met", and admission control then denies tasks the Resource Distributor
would have admitted by shedding someone else's load.  The RD also points
out that Reserves holds resources for reserved-but-unused time.

Here a task reserves one resource-list entry (its maximum, by default —
that is precisely the over-reservation incentive) and keeps it forever;
there is no renegotiation, no policy box, and no quiescent state.
"""

from __future__ import annotations

from repro.baselines.base import BaselineSystem, EnforcingEdfPolicy
from repro.core.grants import Grant
from repro.core.threads import STATE_EXITED, SimThread
from repro.errors import AdmissionError


class ReservesSystem(BaselineSystem):
    """Reservation-based admission over the enforcing EDF policy."""

    policy_class = EnforcingEdfPolicy

    def _admission_check(self, thread: SimThread, grant: Grant) -> None:
        committed = grant.rate + sum(
            t.grant.rate
            for t in self.kernel.periodic_threads()
            if t is not thread and t.grant is not None and t.state is not STATE_EXITED
        )
        capacity = self.machine.schedulable_capacity
        if committed > capacity + 1e-9:
            raise AdmissionError(
                f"Reserves denies {thread.name!r}: reservation {grant.rate:.1%} "
                f"would commit {committed:.1%} > capacity {capacity:.1%} "
                f"(no load-shedding levels to fall back on)"
            )

    def reserved_total(self) -> float:
        """Sum of active reservations (for the over-reservation bench)."""
        return sum(
            t.grant.rate
            for t in self.kernel.periodic_threads()
            if t.grant is not None and t.state is not STATE_EXITED
        )
