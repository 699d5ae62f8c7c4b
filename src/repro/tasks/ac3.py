"""AC3 audio decoder model.

The paper notes the AC3 audio task "requires about 12% of the core VLIW
processor cycles" and that most users are more sensitive to audio
quality than video — which is why the default Policy Box degrades video
before audio.  An AC3 sync frame carries 1536 samples; at 48 kHz that is
32 ms of audio, which we use as the period.

Two QOS levels: full 5.1 decode at 12 %, and a stereo downmix fallback
at 6 % — the discrete kind of degradation a real decoder offers.  Audio
dropouts ("clicks and pops") happen whenever a period's grant is missed,
so the model counts them; under the Resource Distributor the count stays
zero for an admitted decoder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from repro import units
from repro.core.resource_list import ResourceList, ResourceListEntry
from repro.tasks.base import Compute, Op, TaskContext, TaskDefinition

#: One AC3 sync frame: 1536 samples at 48 kHz = 32 ms.
AC3_PERIOD = units.ms_to_ticks(32)
#: Full 5.1 decode: 12 % of the CPU.
AC3_FULL_COST = round(AC3_PERIOD * 0.12)
#: Stereo downmix: 6 %.
AC3_DOWNMIX_COST = round(AC3_PERIOD * 0.06)


@dataclass
class AudioStats:
    frames_full: int = 0
    frames_downmixed: int = 0

    @property
    def total(self) -> int:
        return self.frames_full + self.frames_downmixed


class Ac3Decoder:
    """An AC3 decoder with full and downmix QOS levels.

    A sync frame is the unit of work and one ``Compute``: its six audio
    blocks have nothing between them for the scheduler to react to.
    """

    def __init__(self, name: str = "AC3") -> None:
        self.name = name
        self.stats = AudioStats()

    def decode_full(self, ctx: TaskContext) -> Generator[Op, None, None]:
        """Full 5.1-channel decode of one sync frame, as one op."""
        yield Compute(AC3_FULL_COST)
        self.stats.frames_full += 1

    def decode_downmix(self, ctx: TaskContext) -> Generator[Op, None, None]:
        """Stereo downmix decode of one sync frame, as one op."""
        yield Compute(AC3_DOWNMIX_COST)
        self.stats.frames_downmixed += 1

    def resource_list(self) -> ResourceList:
        return ResourceList(
            [
                ResourceListEntry(AC3_PERIOD, AC3_FULL_COST, self.decode_full, "AC3_Full"),
                ResourceListEntry(
                    AC3_PERIOD, AC3_DOWNMIX_COST, self.decode_downmix, "AC3_Downmix"
                ),
            ]
        )

    def definition(self) -> TaskDefinition:
        return TaskDefinition(name=self.name, resource_list=self.resource_list())
