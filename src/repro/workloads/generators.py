"""Task bodies and single-entry task definitions.

``grant_follower`` and ``greedy_worker`` are the two canonical bodies: one
consumes exactly its grant each period, the other asks for the CPU
forever.  ``single_entry_definition`` wraps either in a one-level task.
"""

from __future__ import annotations

from typing import Generator

from repro import units
from repro.core.resource_list import ResourceList, ResourceListEntry
from repro.tasks.base import Compute, DonePeriod, Op, TaskContext, TaskDefinition


def grant_follower(ctx: TaskContext) -> Generator[Op, None, None]:
    """Consume exactly this period's grant, then yield the processor.

    The canonical well-behaved discrete task: whatever entry the grant
    set selects, the work equals the entry's requirement.
    """
    grant = ctx.grant
    assert grant is not None
    yield Compute(grant.cpu_ticks)
    yield DonePeriod()


def greedy_worker(ctx: TaskContext) -> Generator[Op, None, None]:
    """Consume CPU forever (lands on OvertimeRequested every period)."""
    yield Compute(units.INFINITE)


def single_entry_definition(
    name: str,
    period_ms: float,
    rate: float,
    greedy: bool = False,
) -> TaskDefinition:
    """A one-level task: ``rate`` of the CPU every ``period_ms``."""
    period = units.ms_to_ticks(period_ms)
    function = greedy_worker if greedy else grant_follower
    return TaskDefinition(
        name=name,
        resource_list=ResourceList(
            [
                ResourceListEntry(
                    period=period,
                    cpu_ticks=max(1, round(period * rate)),
                    function=function,
                    label=name,
                )
            ]
        ),
    )
