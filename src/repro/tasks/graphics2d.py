"""2D graphics model (section 3.1).

2D graphics output "is paced by the screen refresh rate set by the
user": the period comes from the refresh rate (e.g. 72 Hz -> 375,000
ticks).  Like 3D, the work is a function of scene complexity that is
not known far in advance, so the task uses return semantics and simply
makes as much progress as its grant allows.  Scene complexity varies
between frames; the task model draws it from the task's deterministic
RNG stream so runs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from repro import units
from repro.core.resource_list import ResourceList, ResourceListEntry
from repro.tasks.base import Compute, Op, Semantics, TaskContext, TaskDefinition


@dataclass
class Render2DStats:
    frames_completed: int = 0
    work_done: int = 0


#: Average scene cost as a fraction of the refresh period, and the
#: uniform jitter (+/-) applied to it frame by frame.
MEAN_FRAME_COST_FRACTION = 0.25
COMPLEXITY_JITTER = 0.3


class Renderer2D:
    """Refresh-paced 2D renderer with proportional QOS levels."""

    def __init__(
        self,
        name: str = "2D",
        refresh_hz: float = 72.0,
        levels: tuple[float, ...] = (0.35, 0.25, 0.15, 0.08),
    ) -> None:
        """``levels`` are the QOS rates offered (fractions of the CPU)."""
        self.name = name
        self.period = units.hz_to_period_ticks(refresh_hz)
        self.mean_frame_cost = round(self.period * MEAN_FRAME_COST_FRACTION)
        self.levels = levels
        self.stats = Render2DStats()

    def _next_frame_cost(self, ctx: TaskContext) -> int:
        jitter = 1.0 + ctx.rng.uniform(-COMPLEXITY_JITTER, COMPLEXITY_JITTER)
        return max(1, round(self.mean_frame_cost * jitter))

    def render(self, ctx: TaskContext) -> Generator[Op, None, None]:
        """Render frames of varying complexity, forever."""
        step = units.us_to_ticks(200)
        whole_step = Compute(step)
        while True:
            steps, rest = divmod(self._next_frame_cost(ctx), step)
            for _ in range(steps):
                yield whole_step
                self.stats.work_done += step
            if rest:
                yield Compute(rest)
                self.stats.work_done += rest
            self.stats.frames_completed += 1

    def resource_list(self) -> ResourceList:
        return ResourceList(
            [
                ResourceListEntry(
                    period=self.period,
                    cpu_ticks=max(1, round(self.period * rate)),
                    function=self.render,
                    label="Render2D",
                )
                for rate in self.levels
            ]
        )

    def definition(self) -> TaskDefinition:
        return TaskDefinition(
            name=self.name,
            resource_list=self.resource_list(),
            semantics=Semantics.RETURN,
        )
