"""3D graphics model (Table 3, sections 3.1 and 5.5).

3D graphics is the paper's example of a task whose work is *not*
discrete: the cost of a scene depends on its complexity, which is not
known far in advance.  The task therefore sheds load "simply by making
less progress on the same function" — every Table 3 entry names the same
``Render3DFrame()`` at 80/40/20/10 % of a 100 ms period — and uses
*return* semantics: state between periods is retained and rendering
continues where it left off.

On the MAP1000 some of the 3D entries use the FFU's video-scaler
exclusive unit and some do not (section 5.5); when a grant change gains
or loses the scaler the task needs callback semantics to clean up, and
otherwise continues with return semantics.  That policy is expressed
with the filter callback, exactly as the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from repro import units
from repro.core.grants import Grant
from repro.core.resource_list import ResourceList, ResourceListEntry
from repro.tasks.base import (
    Compute,
    Op,
    Semantics,
    TaskContext,
    TaskDefinition,
)

#: Table 3 period: 2,700,000 ticks = 100 ms.
RENDER_PERIOD = 2_700_000
#: Table 3 CPU requirements: 80 / 40 / 20 / 10 %.
RENDER_LEVELS = (2_160_000, 1_080_000, 540_000, 270_000)
#: The FFU video-scaler unit used by the two fastest levels.
VIDEO_SCALER = "ffu.video_scaler"


@dataclass
class RenderStats:
    """Progress and cleanup accounting for the renderer."""

    work_done: int = 0
    frames_completed: int = 0
    cleanups: int = 0  # callback restarts caused by scaler handovers


class Renderer3D:
    """A progressive scene renderer with the Table 3 resource list."""

    def __init__(
        self,
        name: str = "3D",
        frame_work: int = units.ms_to_ticks(60),
        use_scaler: bool = True,
    ) -> None:
        """``frame_work`` is the CPU for one scene at current complexity;
        ``use_scaler`` marks the two fastest levels as needing the FFU
        video scaler (exclusive)."""
        self.name = name
        self.frame_work = frame_work
        self.use_scaler = use_scaler
        self.stats = RenderStats()
        self._progress = 0  # work already done on the current scene

    def render_frame(self, ctx: TaskContext) -> Generator[Op, None, None]:
        """Render scenes forever, in small steps (return semantics)."""
        step = units.us_to_ticks(250)
        render_step = Compute(step)
        while True:
            yield render_step
            self.stats.work_done += step
            self._progress += step
            if self._progress >= self.frame_work:
                self._progress = 0
                self.stats.frames_completed += 1

    def scaler_filter(self, old: Grant, new: Grant) -> Semantics:
        """Filter callback: clean up only when scaler access changes."""
        if (VIDEO_SCALER in old.exclusive) != (VIDEO_SCALER in new.exclusive):
            self.stats.cleanups += 1
            self._progress = 0  # scaler state lost; restart the scene
            return Semantics.CALLBACK
        return Semantics.RETURN

    def resource_list(self) -> ResourceList:
        entries = []
        for i, cpu in enumerate(RENDER_LEVELS):
            exclusive = (
                frozenset({VIDEO_SCALER}) if self.use_scaler and i < 2 else frozenset()
            )
            entries.append(
                ResourceListEntry(
                    period=RENDER_PERIOD,
                    cpu_ticks=cpu,
                    function=self.render_frame,
                    label="Render3DFrame",
                    exclusive=exclusive,
                )
            )
        return ResourceList(entries)

    def definition(self) -> TaskDefinition:
        return TaskDefinition(
            name=self.name,
            resource_list=self.resource_list(),
            semantics=Semantics.RETURN,
            filter_callback=self.scaler_filter,
        )
