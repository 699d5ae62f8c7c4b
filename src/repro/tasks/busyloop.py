"""BusyLoop threads (Table 6 / Figure 5).

The paper's section 6.5 load-shedding experiment uses five identical
threads, each with nine resource-list entries at a 10 ms period
(270,000 ticks) requiring 90 % down to 10 % of the CPU in 10 % steps,
all implemented by the same ``BusyLoop()`` function.  The function never
finishes: it consumes whatever it is granted and yields when preemption
is required.
"""

from __future__ import annotations

from typing import Generator

from repro import units
from repro.core.resource_list import ResourceList, ResourceListEntry
from repro.tasks.base import Compute, DonePeriod, Op, TaskContext, TaskDefinition


def busy_loop(ctx: TaskContext) -> Generator[Op, None, None]:
    """Consume CPU forever: one op that never completes.

    The kernel preempts a ``Compute`` at any tick, so there is nothing
    to gain from handing it the loop in chunks.
    """
    yield Compute(units.INFINITE)


def yielding_busy_loop(ctx: TaskContext) -> Generator[Op, None, None]:
    """Consume exactly the period's grant, then yield the processor.

    This matches the section 6.5 experiment, where the BusyLoop threads
    "all yield when preemption is required" and only the Sporadic Server
    indicates it has more work to do; unallocated time therefore flows
    to the server, which runs at least every 10 ms.
    """
    grant = ctx.grant
    assert grant is not None
    yield Compute(grant.cpu_ticks)
    yield DonePeriod(overtime=False)


def busyloop_resource_list(
    period: int = units.ms_to_ticks(10),
    steps: int = 9,
    yielding: bool = True,
) -> ResourceList:
    """The Table 6 resource list: ``steps`` entries from 90 % down.

    With the default nine steps the entries run 90 %, 80 %, ... 10 % of
    the period, exactly as in Table 6 (243,000 down to 27,000 ticks of a
    270,000-tick period).
    """
    if not 1 <= steps <= 9:
        raise ValueError(f"steps must be in 1..9, got {steps}")
    function = yielding_busy_loop if yielding else busy_loop
    entries = [
        ResourceListEntry(
            period=period,
            cpu_ticks=period * (10 - i) // 10,
            function=function,
            label="BusyLoop",
        )
        for i in range(1, steps + 1)
    ]
    return ResourceList(entries)


def busyloop_definition(
    name: str,
    period: int = units.ms_to_ticks(10),
    steps: int = 9,
    yielding: bool = True,
) -> TaskDefinition:
    """A Table 6 thread, ready to admit."""
    return TaskDefinition(
        name=name,
        resource_list=busyloop_resource_list(period, steps, yielding),
    )
