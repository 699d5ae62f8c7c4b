"""The Sporadic Server (section 5.1).

Sporadic tasks — neither periodic nor real-time — are managed by a
Sporadic Server, itself an ordinary admitted periodic task.  The server
keeps a round-robin queue of sporadic tasks; when scheduled, it assigns
its grant to the next ready task for a fixed slice (10 ms in the paper).
The Scheduler then runs the assigned-to thread in the server's place,
with resource bookkeeping still charged to the server.

A sporadic task's performance is purely a function of the CPU the server
receives (tunable through the Policy Box, since the server is a normal
task with a resource list) and the number of sporadic tasks; it has no
scheduling guarantee of its own, but liveness is preserved because the
server is admitted like any other thread.
"""

from __future__ import annotations

from collections import deque
from typing import Generator

from repro import units
from repro.core.distributor import ResourceDistributor
from repro.core.resource_list import ResourceList, ResourceListEntry
from repro.core.threads import STATE_ACTIVE, STATE_EXITED, SimThread
from repro.tasks.base import AssignGrant, DonePeriod, Op, Poll, TaskDefinition


#: What one look at the sporadic queue costs the server.
POLL_COST = units.us_to_ticks(10)


class SporadicServer:
    """Round-robin server for sporadic tasks, backed by a periodic grant."""

    def __init__(
        self,
        distributor: ResourceDistributor,
        period: int = units.ms_to_ticks(100),
        cpu_ticks: int = units.ms_to_ticks(1),
        slice_ticks: int = units.ms_to_ticks(10),
        greedy: bool = True,
    ) -> None:
        """``greedy`` makes the server indicate it has work to do at the
        end of every period (as in the paper's Figure 5 experiment), so
        it soaks up otherwise-unallocated time; a non-greedy server only
        requests overtime while its queue is non-empty."""
        self.distributor = distributor
        self.slice_ticks = slice_ticks
        self.greedy = greedy
        self._queue: deque[SimThread] = deque()
        self.definition = TaskDefinition(
            name="SporadicServer",
            resource_list=ResourceList(
                [
                    ResourceListEntry(
                        period=period,
                        cpu_ticks=cpu_ticks,
                        function=self._run,
                        label="SporadicServer",
                    )
                ]
            ),
        )
        self.thread = distributor.admit(self.definition)

    # -- sporadic task management -----------------------------------------------

    def spawn(self, name: str, function) -> SimThread:
        """Register a sporadic task with the server."""
        task = self.distributor.spawn_sporadic(name, function)
        self._queue.append(task)
        return task

    def _next_ready(self) -> SimThread | None:
        """Rotate to the next runnable sporadic task (round-robin).

        The server calls this after each poll it is resumed for, so an
        exited task is dropped when the rotation meets it rather than by
        filtering the whole queue first.  A pass that finds nothing
        ready is a full rotation: the queue's order is what it was.
        """
        queue = self._queue
        for _ in range(len(queue)):
            task = queue[0]
            if task.state is STATE_EXITED:
                queue.popleft()
                continue
            queue.rotate(-1)
            if task.state is STATE_ACTIVE and not task.gen_exhausted:
                return task
        return None

    # -- the server's own task body -------------------------------------------------

    def _run(self, ctx) -> Generator[Op, None, None]:
        # Ops are immutable.  A greedy server polls otherwise-unallocated
        # time many times to a slice, and the kernel neither re-picks on
        # a poll nor resumes this body for each one (``Kernel._execute``
        # charges a run of them in one step).  That rests on ``Poll``'s
        # contract, which the server keeps: once a pass of _next_ready
        # finds nothing ready, a further pass is a full rotation that
        # changes nothing, so what follows a poll depends on the tasks'
        # states alone, never on the clock or on the polls before it.
        poll = Poll(POLL_COST)
        done = DonePeriod(overtime=self.greedy)
        while True:
            yield poll
            task = self._next_ready()
            if task is not None:
                yield AssignGrant(task.tid, self.slice_ticks)
            else:
                yield done
