"""MPEG decoder model (Table 2, sections 3.1 and 5.4).

An MPEG stream arrives at 30 frames per second (period 900,000 ticks of
the 27 MHz TCI clock) in groups of pictures mixing I, P, and B frames:
I frames decode in isolation, P frames difference against the previous
I/P, B frames against both neighbours.  Losing a B frame costs one
displayed frame; losing an I frame ruins the picture until the next I
frame — typically half a second — so an admitted decoder must never be
forced to drop one.

The decoder sheds load in discrete steps by dropping B frames (Table 2):

====================  ==========  ==========  ======
level                 period      CPU         rate
====================  ==========  ==========  ======
``FullDecompress``       900,000     300,000  33.3 %
``Drop_B_in_4``        3,600,000     900,000  25.0 %
``Drop_B_in_3``        2,700,000     600,000  22.2 %
``Drop_2B_in_4``       3,600,000     600,000  16.7 %
====================  ==========  ==========  ======

The degraded levels stretch the period to a whole B-group so a complete
group of frames is handled per period with the dropped B frames simply
not decoded — resource requirements are discrete, and a fractional
allocation would be wasted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Iterator

from repro.core.resource_list import ResourceList, ResourceListEntry
from repro.tasks.base import Compute, DonePeriod, Op, TaskContext, TaskDefinition

#: 30 fps on the 27 MHz clock.
FRAME_PERIOD = 900_000
#: CPU to decode one frame at full quality (1/3 of the CPU for 1/30 s).
FRAME_COST = 300_000

#: A 15-frame group of pictures: I BB P BB P BB P BB P BB.
DEFAULT_GOP = "IBBPBBPBBPBBPBB"

#: Relative decode cost by frame type (I frames are intra-coded and big;
#: B frames are small but bidirectional).  Scaled so the average over the
#: default GOP is ~1.0 frame cost.
FRAME_COST_FACTOR = {"I": 1.6, "P": 1.1, "B": 0.8}
#: One decode op per frame type: the cost depends on nothing else.
_DECODE_OP = {
    frame: Compute(int(FRAME_COST * factor))
    for frame, factor in FRAME_COST_FACTOR.items()
}


@dataclass
class DecodeStats:
    """What the decoder actually did, for QOS verification."""

    decoded: dict[str, int] = field(default_factory=lambda: {"I": 0, "P": 0, "B": 0})
    dropped: dict[str, int] = field(default_factory=lambda: {"I": 0, "P": 0, "B": 0})

    def record(self, frame_type: str, decoded: bool) -> None:
        bucket = self.decoded if decoded else self.dropped
        bucket[frame_type] += 1

    @property
    def total_decoded(self) -> int:
        return sum(self.decoded.values())

    @property
    def i_frames_lost(self) -> int:
        """Must stay zero for acceptable QOS."""
        return self.dropped["I"]


class MpegDecoder:
    """A software MPEG decoder with the Table 2 resource list.

    Each resource-list entry is a distinct bound function, as in the
    paper; the entry in force determines how many B frames of each group
    are dropped.  A decoded frame is one ``Compute``: nothing happens
    between two macroblocks that the scheduler could react to, and the
    kernel preempts a ``Compute`` at any tick.
    """

    def __init__(self, name: str = "MPEG", gop: str = DEFAULT_GOP) -> None:
        if set(gop) - {"I", "P", "B"}:
            raise ValueError(f"GOP pattern may only contain I/P/B, got {gop!r}")
        if not gop.startswith("I"):
            raise ValueError("a GOP must start with an I frame")
        self.name = name
        self.gop = gop
        self.stats = DecodeStats()
        self._frames = self._frame_source()

    def _frame_source(self) -> Iterator[str]:
        while True:
            yield from self.gop

    # -- decode plumbing ----------------------------------------------------

    def _decode_frames(
        self, ctx: TaskContext, count: int, drop_b: int
    ) -> Generator[Op, None, None]:
        """Decode ``count`` arriving frames, dropping ``drop_b`` B frames."""
        dropped = 0
        for _ in range(count):
            frame = next(self._frames)
            if frame == "B" and dropped < drop_b:
                dropped += 1
                self.stats.record(frame, decoded=False)
                continue
            yield _DECODE_OP[frame]
            self.stats.record(frame, decoded=True)

    # -- the four QOS levels (Table 2) -----------------------------------------

    def full_decompress(self, ctx: TaskContext) -> Generator[Op, None, None]:
        """Decode every frame: 1 frame per 1/30 s period."""
        yield from self._decode_frames(ctx, count=1, drop_b=0)

    def drop_b_in_4(self, ctx: TaskContext) -> Generator[Op, None, None]:
        """Drop 1 B frame of every 4 frames (4-frame period)."""
        yield from self._decode_frames(ctx, count=4, drop_b=1)
        yield DonePeriod()

    def drop_b_in_3(self, ctx: TaskContext) -> Generator[Op, None, None]:
        """Drop 1 B frame of every 3 frames (3-frame period)."""
        yield from self._decode_frames(ctx, count=3, drop_b=1)
        yield DonePeriod()

    def drop_2b_in_4(self, ctx: TaskContext) -> Generator[Op, None, None]:
        """Drop 2 B frames of every 4 frames (4-frame period)."""
        yield from self._decode_frames(ctx, count=4, drop_b=2)
        yield DonePeriod()

    # -- public API -------------------------------------------------------------

    def resource_list(self) -> ResourceList:
        """The Table 2 resource list."""
        return ResourceList(
            [
                ResourceListEntry(900_000, 300_000, self.full_decompress, "FullDecompress"),
                ResourceListEntry(3_600_000, 900_000, self.drop_b_in_4, "Drop_B_in_4"),
                ResourceListEntry(2_700_000, 600_000, self.drop_b_in_3, "Drop_B_in_3"),
                ResourceListEntry(3_600_000, 600_000, self.drop_2b_in_4, "Drop_2B_in_4"),
            ]
        )

    def definition(self) -> TaskDefinition:
        """Admission-ready task definition (callback semantics: the same
        function runs on fresh data every period)."""
        return TaskDefinition(name=self.name, resource_list=self.resource_list())
