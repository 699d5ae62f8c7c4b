"""The cool-down quiescent task (section 5.3).

If the processor overheats, the operating system must run a no-op loop
that switches fewer transistors.  The task needs some percentage of the
processor — not 100 %, or shutting down would make more sense — and
until overheating happens (if ever) its resources should flow to other
tasks.  Terminating a running task to make room would violate the
scheduling guarantee, so the cool-down task is admitted *quiescent*:
counted by admission control, ignored by grant control.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from repro import units
from repro.core.resource_list import ResourceList, ResourceListEntry
from repro.tasks.base import Compute, Op, TaskContext, TaskDefinition


@dataclass
class CooldownStats:
    noop_ticks: int = 0


class CooldownTask:
    """A no-op loop sized to the extent of overheating."""

    def __init__(
        self,
        name: str = "Cooldown",
        period: int = units.ms_to_ticks(10),
        fractions: tuple[float, ...] = (0.5, 0.3, 0.15),
    ) -> None:
        """``fractions`` are the cooling levels offered, strongest first;
        the Policy Box picks among them like any other QOS tradeoff."""
        self.name = name
        self.period = period
        self.fractions = fractions
        self.stats = CooldownStats()

    def noop_loop(self, ctx: TaskContext) -> Generator[Op, None, None]:
        """Switch as few transistors as possible for the whole grant."""
        grant = ctx.grant
        assert grant is not None
        yield Compute(grant.cpu_ticks)
        self.stats.noop_ticks += grant.cpu_ticks

    def resource_list(self) -> ResourceList:
        return ResourceList(
            [
                ResourceListEntry(
                    period=self.period,
                    cpu_ticks=max(1, round(self.period * f)),
                    function=self.noop_loop,
                    label="Cooldown",
                )
                for f in self.fractions
            ]
        )

    def definition(self) -> TaskDefinition:
        return TaskDefinition(
            name=self.name,
            resource_list=self.resource_list(),
            start_quiescent=True,
        )
