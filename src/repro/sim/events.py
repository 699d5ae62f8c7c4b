"""Deterministic event queue for the simulation kernel.

Events are ordered by (time, sequence number), so two events scheduled
for the same tick fire in the order they were scheduled.  This makes
every simulation run fully deterministic for a given seed and program.

The kernel uses the queue for *external* events only: task arrivals,
phone calls waking a quiescent modem, clock-skew adjustments, and so on.
Thread dispatching itself is driven by the scheduler's timer logic, not
by this queue, mirroring how the real system's timer interrupt works.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import SimulationError


@dataclass(frozen=True, order=True)
class ScheduledEvent:
    """An event scheduled to fire at an absolute simulation time."""

    time: int
    seq: int
    action: Callable[[], None] = field(compare=False)
    label: str = field(compare=False, default="")


class EventQueue:
    """A min-heap of :class:`ScheduledEvent` with stable FIFO tie-breaks."""

    def __init__(self) -> None:
        self._heap: list[ScheduledEvent] = []
        self._counter = itertools.count()
        #: Sequence numbers of the events still queued and not cancelled;
        #: a heap entry missing from it is dropped when it surfaces.
        self._live: set[int] = set()

    def __len__(self) -> int:
        return len(self._live)

    def __bool__(self) -> bool:
        return bool(self._live)

    def schedule(self, time: int, action: Callable[[], None], label: str = "") -> ScheduledEvent:
        """Schedule ``action`` to fire at absolute tick ``time``.

        Returns the event, which can later be passed to :meth:`cancel`.
        """
        if time < 0:
            raise SimulationError(f"cannot schedule an event at negative time {time}")
        event = ScheduledEvent(time=time, seq=next(self._counter), action=action, label=label)
        heapq.heappush(self._heap, event)
        self._live.add(event.seq)
        return event

    def cancel(self, event: ScheduledEvent) -> None:
        """Cancel a previously scheduled event.  Idempotent; an event
        already popped is no longer queued, so cancelling it does
        nothing."""
        self._live.discard(event.seq)

    def next_time(self) -> int | None:
        """Time of the earliest pending event, or ``None`` if empty."""
        self._drop_cancelled()
        if not self._heap:
            return None
        return self._heap[0].time

    def pop_due(self, now: int) -> list[ScheduledEvent]:
        """Remove and return every event with ``time <= now``, in order."""
        due: list[ScheduledEvent] = []
        heap = self._heap
        while True:
            self._drop_cancelled()
            if not heap or heap[0].time > now:
                break
            event = heapq.heappop(heap)
            self._live.discard(event.seq)
            due.append(event)
        return due

    def _drop_cancelled(self) -> None:
        heap = self._heap
        while heap and heap[0].seq not in self._live:
            heapq.heappop(heap)
