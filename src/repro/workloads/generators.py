"""Seeded random task sets.

Used by the property-based tests (EDF guarantee invariants over
arbitrary admitted task sets) and by the scaling benches (admission cost
vs thread count, grant-set cost vs N).  All generation is driven by an
explicit ``random.Random`` so every workload is reproducible.
"""

from __future__ import annotations

import random
from typing import Generator

from repro import units
from repro.core.resource_list import ResourceList, ResourceListEntry
from repro.tasks.base import Compute, DonePeriod, Op, TaskContext, TaskDefinition

#: Periods sampled for random tasks: 5 ms to 100 ms.  (Sub-millisecond
#: periods are legal but make switch overhead dominate, which the paper
#: handles with the interrupt reserve; tests exercise them separately.)
PERIOD_CHOICES_MS = (5, 10, 20, 30, 40, 50, 100)


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


def random_resource_list(
    rng: random.Random,
    max_levels: int = 5,
    max_rate: float = 0.9,
    min_rate: float = 0.02,
    greedy: bool = False,
) -> ResourceList:
    """A random, valid resource list with strictly decreasing rates."""
    period = units.ms_to_ticks(rng.choice(PERIOD_CHOICES_MS))
    levels = rng.randint(1, max_levels)
    top = rng.uniform(min_rate * 2, max_rate)
    rates = sorted(
        {round(rng.uniform(min_rate, top), 4) for _ in range(levels)} | {round(top, 4)},
        reverse=True,
    )
    function = greedy_worker if greedy else grant_follower
    entries = []
    for rate in rates:
        cpu = max(1, round(period * rate))
        if entries and cpu >= entries[-1].cpu_ticks:
            continue  # rounding collapsed two levels; keep rates strict
        entries.append(
            ResourceListEntry(period=period, cpu_ticks=cpu, function=function)
        )
    return ResourceList(entries)


def random_task_set(
    rng: random.Random,
    count: int,
    capacity: float = 0.96,
    max_levels: int = 5,
    greedy: bool = False,
) -> list[TaskDefinition]:
    """``count`` random tasks whose *minimum* rates are jointly admissible.

    The maxima may well overload the system — that is the interesting
    regime for grant control — but the admission invariant (sum of
    minima fits) always holds, so every definition can be admitted.
    """
    definitions: list[TaskDefinition] = []
    committed = 0.0
    for i in range(count):
        headroom = capacity - committed
        for _ in range(50):
            resource_list = random_resource_list(rng, max_levels=max_levels, greedy=greedy)
            if resource_list.minimum.rate <= headroom:
                break
        else:
            # Out of headroom: give the task a tiny single-entry list.
            # Floor the tick count so rounding can never nudge the
            # committed sum past the capacity.
            period = units.ms_to_ticks(rng.choice(PERIOD_CHOICES_MS))
            cpu = int(period * min(headroom, 0.01))
            if cpu < 1 or headroom <= 0.001:
                break
            resource_list = ResourceList(
                [ResourceListEntry(period, cpu, grant_follower)]
            )
        committed += resource_list.minimum.rate
        definitions.append(TaskDefinition(name=f"task{i}", resource_list=resource_list))
    return definitions


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
