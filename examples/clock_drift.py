#!/usr/bin/env python3
"""Clock synchronization (section 5.4): a second MPEG transport stream.

The scheduler's timebase is the first stream's 27 MHz TCI clock.  A
second stream arrives with its own TCI clock that drifts (here: 800 ppm
slow, then wandering fast).  The decoder estimates the skew from paired
clock readings and uses InsertIdleCycles to postpone period starts,
keeping its decode phase locked to the stream — while an identical
unsynchronized decoder drifts a full frame out of phase.

Run:  python examples/clock_drift.py
"""

from repro import ResourceDistributor, TaskDefinition, units
from repro.core.clock_sync import SkewEstimator, postpone_for_period
from repro.core.resource_list import ResourceList, ResourceListEntry
from repro.sim.clock import TCIClock
from repro.tasks.base import Compute, DonePeriod, InsertIdleCycles

FRAME_PERIOD = 900_000  # 30 fps on the nominal clock
DECODE_COST = 150_000


class StreamDecoder:
    """Decoder for one transport stream, optionally phase-locked."""

    def __init__(self, name: str, stream_clock: TCIClock, synchronize: bool) -> None:
        self.name = name
        self.clock = stream_clock
        self.synchronize = synchronize
        self.estimator = SkewEstimator(stream_clock)
        #: The stream clock's reading at each period's start, latched
        #: as the period's decode begins: a crystal is read as time
        #: passes, so a later skew change (which re-anchors the clock)
        #: cannot move a reading already taken.
        self.stream_readings: list[float] = []

    def decode(self, ctx):
        self.stream_readings.append(self.clock.read(ctx.delivery.period_start))
        yield Compute(DECODE_COST)
        # Re-estimate the skew from paired readings each period.
        self.estimator.sample(ctx.now)
        if self.synchronize and self.estimator.ready:
            skew = self.estimator.estimate_ppm()
            yield InsertIdleCycles(
                postpone_for_period(FRAME_PERIOD, FRAME_PERIOD, skew)
            )
        yield DonePeriod()

    def definition(self) -> TaskDefinition:
        return TaskDefinition(
            name=self.name,
            resource_list=ResourceList(
                [ResourceListEntry(FRAME_PERIOD, DECODE_COST, self.decode, self.name)]
            ),
        )

    def phase_error_frames(self) -> float:
        """How far decode phase has drifted from the stream, in frames."""
        if not self.stream_readings:
            return 0.0
        k = len(self.stream_readings) - 1
        # Where the stream was when the k-th period started: the stream
        # clock advances (1+skew) per master tick.
        return (self.stream_readings[-1] - k * FRAME_PERIOD) / FRAME_PERIOD


def main() -> None:
    rd = ResourceDistributor()
    stream2 = TCIClock("stream2-tci", skew_ppm=-800.0)

    synced = StreamDecoder("synced", stream2, synchronize=True)
    unsynced = StreamDecoder("unsynced", stream2, synchronize=False)
    rd.admit(synced.definition())
    rd.admit(unsynced.definition())

    # The stream's crystal wanders mid-run, as real TCI clocks do.
    rd.at(
        units.sec_to_ticks(10),
        lambda: stream2.set_skew_ppm(500.0, rd.now),
        "stream clock wanders fast",
    )

    for checkpoint_s in (5, 10, 15, 20):
        rd.run_until(units.sec_to_ticks(checkpoint_s))
        print(
            f"t={checkpoint_s:>2d} s  phase error: "
            f"synced {synced.phase_error_frames():+7.3f} frames, "
            f"unsynced {unsynced.phase_error_frames():+7.3f} frames"
        )

    print(
        "\nThe synchronized decoder holds its phase within a fraction of"
        "\na frame through both drift regimes; the unsynchronized decoder"
        "\naccumulates error and would duplicate or drop whole frames."
        f"\nDeadline misses: {len(rd.trace.misses())} — postponing periods"
        "\nnever jeopardizes other tasks' guarantees."
    )


if __name__ == "__main__":
    main()
