"""The telephone-answering modem (sections 3.1 and 5.3).

The canonical quiescent task: it consumes nothing while waiting for a
call, but "cannot be denied admittance at some unspecified later time" —
when the phone rings it must run, promptly, without terminating anyone.
Admission control therefore pre-commits its minimum entry even while it
is quiescent; grant control ignores it until it wakes.

Grant parameters follow Table 4's modem row: 27,000 ticks (1 ms) of CPU
per 270,000-tick (10 ms) period — 10 % of the processor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from repro.core.resource_list import ResourceList, ResourceListEntry
from repro.tasks.base import Compute, Op, TaskContext, TaskDefinition

#: Table 4: the modem's period and CPU requirement.
MODEM_PERIOD = 270_000
MODEM_CPU = 27_000
#: Line samples processed per period, each one a progress point.
SAMPLES_PER_PERIOD = 80


@dataclass
class ModemStats:
    periods_serviced: int = 0
    samples_processed: int = 0


class Modem:
    """A soft modem that answers the phone."""

    def __init__(self, name: str = "Modem") -> None:
        self.name = name
        self.stats = ModemStats()

    def service(self, ctx: TaskContext) -> Generator[Op, None, None]:
        """Process one period's worth of line samples."""
        grant = ctx.grant
        assert grant is not None
        sample = Compute(max(1, grant.cpu_ticks // SAMPLES_PER_PERIOD))
        for _ in range(SAMPLES_PER_PERIOD):
            yield sample
            self.stats.samples_processed += 1
        self.stats.periods_serviced += 1

    def resource_list(self) -> ResourceList:
        return ResourceList(
            [ResourceListEntry(MODEM_PERIOD, MODEM_CPU, self.service, "Modem")]
        )

    def definition(self, start_quiescent: bool = True) -> TaskDefinition:
        """Admission-ready definition; quiescent by default (waiting for
        the phone to ring)."""
        return TaskDefinition(
            name=self.name,
            resource_list=self.resource_list(),
            start_quiescent=start_quiescent,
        )
