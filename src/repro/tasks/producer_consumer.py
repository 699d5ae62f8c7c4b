"""The Figure 4 workload: producers and data-management threads.

Section 6.5's first experiment runs four periodic threads plus the
Sporadic Server, all with a 1/30 s period, with maximum CPU requirements
of 13, 2, 3, and 3 ms:

* **thread 7** — a producer with the 13 ms requirement that "never
  reports that it has finished its work for the period"; it receives the
  system's unused time but is preempted when a new period begins, and
  still receives its guaranteed allocation;
* **thread 9** — a producer that completes its work each period;
* **threads 8 and 10** — data-management threads that *spin* waiting
  for producer data.  The paper calls this "a bug in the application":
  they should block, let the producers set an event, and regain their
  guarantees in the following period.  Both variants are provided so the
  bug's cost is measurable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from repro import units
from repro.core.resource_list import ResourceList, ResourceListEntry
from repro.tasks.base import Block, Compute, DonePeriod, Op, TaskContext, TaskDefinition
from repro.tasks.channels import Channel

#: 1/30 s on the 27 MHz clock.
PERIOD = 900_000


@dataclass
class PCStats:
    items_produced: int = 0
    items_consumed: int = 0
    spin_ticks: int = 0


def _single_entry(name: str, cpu_ms: float, function) -> TaskDefinition:
    return TaskDefinition(
        name=name,
        resource_list=ResourceList(
            [
                ResourceListEntry(
                    period=PERIOD,
                    cpu_ticks=units.ms_to_ticks(cpu_ms),
                    function=function,
                    label=name,
                )
            ]
        ),
    )


#: CPU time to produce one item; consuming one costs a quarter of it.
ITEM_COST = units.ms_to_ticks(1)


class Figure4Workload:
    """Builds the Figure 4 thread set (buggy or fixed data management)."""

    def __init__(self, fixed: bool = False) -> None:
        """``fixed=False`` reproduces the paper's run, where the data
        threads spin; ``fixed=True`` applies the fix the paper suggests
        (block on an event set by the producer)."""
        self.fixed = fixed
        self.stats = PCStats()
        self.channel7 = Channel("producer7.data")
        self.channel9 = Channel("producer9.data")

    # -- producers ------------------------------------------------------------

    def producer7(self, ctx: TaskContext) -> Generator[Op, None, None]:
        """13 ms requirement; produces forever, never reports done."""
        item = Compute(ITEM_COST)
        while True:
            yield item
            self.stats.items_produced += 1
            self.channel7.post()

    def producer9(self, ctx: TaskContext) -> Generator[Op, None, None]:
        """3 ms requirement; completes its work each period."""
        grant = ctx.grant
        assert grant is not None
        items = max(1, grant.cpu_ticks // ITEM_COST)
        item = Compute(ITEM_COST)
        for _ in range(items):
            yield item
            self.stats.items_produced += 1
            self.channel9.post()
        yield DonePeriod()

    # -- data-management threads ------------------------------------------------

    def _consume(
        self, ctx: TaskContext, channel: Channel
    ) -> Generator[Op, None, None]:
        process = Compute(ITEM_COST // 4)
        if self.fixed:
            wait = Block(channel)
            while True:
                yield wait
                yield process
                self.stats.items_consumed += 1
        else:
            # The bug: poll for data, burning the grant while none arrives.
            spin = Compute(units.us_to_ticks(20))
            while True:
                if channel.try_take():
                    yield process
                    self.stats.items_consumed += 1
                else:
                    yield spin
                    self.stats.spin_ticks += spin.ticks

    def data_mgmt8(self, ctx: TaskContext) -> Generator[Op, None, None]:
        """2 ms requirement, consuming producer 7's data."""
        yield from self._consume(ctx, self.channel7)

    def data_mgmt10(self, ctx: TaskContext) -> Generator[Op, None, None]:
        """3 ms requirement, consuming producer 9's data."""
        yield from self._consume(ctx, self.channel9)

    # -- definitions -----------------------------------------------------------

    def definitions(self) -> list[TaskDefinition]:
        """The four Figure 4 threads, in thread-number order (7..10)."""
        return [
            _single_entry("producer7", 13.0, self.producer7),
            _single_entry("data_mgmt8", 2.0, self.data_mgmt8),
            _single_entry("producer9", 3.0, self.producer9),
            _single_entry("data_mgmt10", 3.0, self.data_mgmt10),
        ]
