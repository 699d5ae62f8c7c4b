"""Live MPEG transport streams (sections 3.1 and 5.4).

"The MPEG data stream is received live, at 30 frames per second" — and
it is paced by the *sender's* 27 MHz TCI clock, which drifts relative
to the scheduling timebase.  A decoder that ignores the drift slowly
runs ahead of the stream (buffer underflow: nothing to decode) or
behind it (buffer overflow: frames dropped before they are ever
decoded — catastrophic if one is an I frame).

:class:`TransportStream` delivers typed frames into a bounded buffer on
its own drifting clock; :class:`LiveMpegDecoder` is a periodic task
consuming them, optionally phase-locking to the stream with the §5.4
procedure (a conservative declared period plus measured
``InsertIdleCycles``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Generator

from repro.core.clock_sync import SkewEstimator, conservative_period, postpone_for_period
from repro.core.resource_list import ResourceList, ResourceListEntry
from repro.sim.clock import TCIClock
from repro.tasks.base import Compute, DonePeriod, InsertIdleCycles, Op, TaskContext, TaskDefinition
from repro.tasks.channels import Channel
from repro.tasks.mpeg import DEFAULT_GOP, FRAME_COST_FACTOR

#: Nominal frame period: 30 fps on the 27 MHz clock.
FRAME_PERIOD = 900_000
#: The live decoder's single grant, as a fraction of its period.
CPU_FRACTION = 1 / 3


@dataclass
class StreamStats:
    delivered: int = 0
    overflow_dropped: dict = field(default_factory=lambda: {"I": 0, "P": 0, "B": 0})

    @property
    def total_overflow(self) -> int:
        return sum(self.overflow_dropped.values())


class TransportStream:
    """A live stream pushing frames into a bounded buffer.

    Frames arrive every ``FRAME_PERIOD`` ticks *of the stream's clock*;
    when the buffer is full the oldest frame is lost before decode — the
    overflow the paper's I-frame discussion dreads.
    """

    def __init__(
        self,
        name: str = "stream",
        gop: str = DEFAULT_GOP,
        skew_ppm: float = 0.0,
        buffer_capacity: int = 8,
    ) -> None:
        if buffer_capacity < 1:
            raise ValueError(f"buffer capacity must be >= 1, got {buffer_capacity}")
        self.name = name
        self.gop = gop
        self.clock = TCIClock(f"{name}.tci", skew_ppm=skew_ppm)
        self.buffer: deque[str] = deque()
        self.buffer_capacity = buffer_capacity
        self.channel = Channel(f"{name}.frames")
        self.stats = StreamStats()
        self._gop_pos = 0
        self._next_arrival_reading = float(FRAME_PERIOD)

    # -- consumer API ------------------------------------------------------

    def take_frame(self) -> str | None:
        """Remove and return the oldest buffered frame, if any."""
        if self.buffer:
            return self.buffer.popleft()
        return None

    @property
    def depth(self) -> int:
        return len(self.buffer)

    # -- arrival machinery -----------------------------------------------------

    def _arrive(self) -> None:
        frame = self.gop[self._gop_pos % len(self.gop)]
        self._gop_pos += 1
        if len(self.buffer) >= self.buffer_capacity:
            lost = self.buffer.popleft()
            self.stats.overflow_dropped[lost] += 1
        self.buffer.append(frame)
        self.stats.delivered += 1
        self.channel.post()

    def _next_arrival_master(self, master_now: int) -> int:
        reading = self.clock.read(master_now)
        while self._next_arrival_reading <= reading + 0.5:
            self._next_arrival_reading += FRAME_PERIOD
        rate = 1.0 + self.clock.skew_ppm / 1e6
        remaining = (self._next_arrival_reading - reading) / rate
        return master_now + max(1, round(remaining))

    def attach(self, kernel, horizon: int) -> None:
        """Start delivering frames on ``kernel`` until ``horizon``."""

        def schedule() -> None:
            when = self._next_arrival_master(kernel.now)
            if when >= horizon:
                return

            def fire() -> None:
                self._arrive()
                schedule()

            kernel.at(when, fire, label=f"{self.name} frame")

        schedule()


@dataclass
class LiveDecodeStats:
    decoded: dict = field(default_factory=lambda: {"I": 0, "P": 0, "B": 0})
    underflows: int = 0
    max_depth_seen: int = 0

    @property
    def total_decoded(self) -> int:
        return sum(self.decoded.values())


class LiveMpegDecoder:
    """A periodic decoder consuming a :class:`TransportStream`.

    With ``synchronize=True`` it declares a conservative period sized
    for ``max_skew_ppm`` and stretches each period by the *measured*
    skew (the §5.4 procedure), holding buffer depth steady against any
    drift within the budget.  Unsynchronized, it decodes at the nominal
    rate and drifts with the stream.
    """

    def __init__(
        self,
        stream: TransportStream,
        name: str | None = None,
        synchronize: bool = True,
        max_skew_ppm: float = 5_000.0,
    ) -> None:
        self.stream = stream
        self.name = name or f"{stream.name}.decoder"
        self.synchronize = synchronize
        self.estimator = SkewEstimator(stream.clock)
        if synchronize:
            self.period = conservative_period(FRAME_PERIOD, max_skew_ppm)
        else:
            self.period = FRAME_PERIOD
        self.cpu_ticks = max(1, round(self.period * CPU_FRACTION))
        #: One decode op per frame type: the cost depends on nothing else.
        self._decode_op = {
            frame: Compute(
                max(1, min(self.cpu_ticks, int(self.cpu_ticks * factor / 1.6)))
            )
            for frame, factor in FRAME_COST_FACTOR.items()
        }
        self.stats = LiveDecodeStats()

    def decode(self, ctx: TaskContext) -> Generator[Op, None, None]:
        """Decode the oldest buffered frame (one per period)."""
        self.stats.max_depth_seen = max(self.stats.max_depth_seen, self.stream.depth)
        frame = self.stream.take_frame()
        if frame is None:
            # Ran ahead of the stream: nothing to decode this period.
            self.stats.underflows += 1
        else:
            yield self._decode_op[frame]
            self.stats.decoded[frame] += 1
        self.estimator.sample(ctx.now)
        if self.synchronize and self.estimator.ready:
            skew = self.estimator.estimate_ppm()
            yield InsertIdleCycles(
                postpone_for_period(self.period, FRAME_PERIOD, skew)
            )
        yield DonePeriod()

    def definition(self) -> TaskDefinition:
        return TaskDefinition(
            name=self.name,
            resource_list=ResourceList(
                [
                    ResourceListEntry(
                        self.period, self.cpu_ticks, self.decode, self.name
                    )
                ]
            ),
        )
