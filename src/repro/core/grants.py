"""Grants: the Resource Manager's promises to threads.

A grant is a (period, CPU budget) pair drawn from one of the thread's
resource-list entries: "a grant might allocate 10 ms of CPU cycles in a
30 ms period.  The grant is a guarantee to the thread that this much
resource will be allocated to the thread in each period."

A :class:`GrantSet` is the Resource Manager's complete answer for all
admitted, non-quiescent threads.  Its defining invariant — the reason
the Scheduler can be a policy-free EDF enforcer — is that the rates sum
to at most the schedulable capacity of the machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from repro.core.resource_list import ResourceListEntry
from repro.errors import GrantError


@dataclass(frozen=True)
class Grant:
    """A guaranteed allocation for one thread, drawn from its list."""

    thread_id: int
    entry: ResourceListEntry
    #: Index of ``entry`` in the thread's resource list (0 = max QOS).
    entry_index: int

    @property
    def period(self) -> int:
        return self.entry.period

    @property
    def cpu_ticks(self) -> int:
        return self.entry.cpu_ticks

    @property
    def rate(self) -> float:
        return self.entry.rate

    @property
    def exclusive(self) -> frozenset[str]:
        return self.entry.exclusive


class GrantSet:
    """The grants for every admitted, non-quiescent thread.

    Quiescent threads are deliberately absent: they participate in
    admission control but receive no grant while quiescent, so the
    resources they would use flow to the other threads (section 5.3).
    """

    def __init__(
        self,
        grants: Mapping[int, Grant],
        capacity: float,
        bandwidth_capacity: float = 1.0,
    ) -> None:
        for tid, grant in grants.items():
            if grant.thread_id != tid:
                raise GrantError(
                    f"grant for thread {grant.thread_id} filed under key {tid}"
                )
        total = sum([g.entry.rate for g in grants.values()])
        if total > capacity + 1e-9:
            raise GrantError(
                f"grant set rate {total:.4f} exceeds schedulable capacity "
                f"{capacity:.4f}; the Resource Manager must never emit such a set"
            )
        total_bandwidth = sum([g.entry.bandwidth for g in grants.values()])
        if total_bandwidth > bandwidth_capacity + 1e-9:
            raise GrantError(
                f"grant set bandwidth {total_bandwidth:.4f} exceeds the Data "
                f"Streamer capacity {bandwidth_capacity:.4f}"
            )
        self._grants = dict(grants)
        self._capacity = capacity
        self._bandwidth_capacity = bandwidth_capacity

    def __len__(self) -> int:
        return len(self._grants)

    def __iter__(self) -> Iterator[Grant]:
        return iter(self._grants.values())

    def __contains__(self, thread_id: int) -> bool:
        return thread_id in self._grants

    def get(self, thread_id: int) -> Grant | None:
        return self._grants.get(thread_id)

    def ids(self):
        """Thread ids in the set, as a set-like dict view (C-speed
        difference/symmetric-difference for notify diffs)."""
        return self._grants.keys()

    def items(self) -> Iterator[tuple[int, Grant]]:
        """(thread_id, grant) pairs, in admission order."""
        return iter(self._grants.items())

    def __getitem__(self, thread_id: int) -> Grant:
        try:
            return self._grants[thread_id]
        except KeyError:
            raise GrantError(f"no grant for thread {thread_id}") from None

    @property
    def capacity(self) -> float:
        return self._capacity

    @property
    def total_rate(self) -> float:
        return sum(g.rate for g in self._grants.values())

    @property
    def slack(self) -> float:
        """Schedulable capacity left unallocated by this set."""
        return self._capacity - self.total_rate

    @property
    def total_bandwidth(self) -> float:
        """Data Streamer bandwidth consumed by this set."""
        return sum(g.entry.bandwidth for g in self._grants.values())

    @property
    def bandwidth_capacity(self) -> float:
        return self._bandwidth_capacity

    def thread_ids(self) -> tuple[int, ...]:
        return tuple(self._grants)

    def exclusive_owner(self, unit: str) -> int | None:
        """The thread whose grant includes exclusive unit ``unit``."""
        owners = [g.thread_id for g in self._grants.values() if unit in g.exclusive]
        if len(owners) > 1:
            raise GrantError(
                f"exclusive unit {unit!r} granted to multiple threads {owners}"
            )
        return owners[0] if owners else None

    def describe(self) -> str:
        """Render in the paper's Table 4 format."""
        header = f"{'Thread':>8} {'Period':>12} {'CPU Req':>12} {'Rate':>7}  Function"
        rows = []
        for grant in sorted(self._grants.values(), key=lambda g: g.thread_id):
            entry = grant.entry
            name = entry.label or getattr(entry.function, "__name__", "fn")
            rows.append(
                f"{grant.thread_id:>8} {entry.period:>12,d} {entry.cpu_ticks:>12,d} "
                f"{entry.rate * 100:6.1f}%  {name}"
            )
        return "\n".join([header] + rows)


@dataclass(frozen=True)
class GrantDelivery:
    """Arguments passed to an entry function when a grant is delivered.

    Section 5.5: "the calling arguments include whether the previous
    call completed, the sum of the resources used in the previous call,
    and an indicator of which grant has been assigned for this period."
    """

    #: Did the previous period's call run to completion?
    previous_completed: bool
    #: CPU ticks consumed in the previous period.
    previous_used: int
    #: Which grant (resource-list entry index) applies this period.
    grant: Grant
    #: Start of the period being delivered.
    period_start: int
