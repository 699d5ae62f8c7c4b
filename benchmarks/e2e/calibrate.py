"""Reference seconds: host time scaled by a frozen calibration loop.

Raw wall time on a shared box moves with whatever else the machine is
doing, so every host-time number this benchmark reports is expressed in
*reference seconds* (``ref-s``): seconds on a machine whose calibration
loop takes ``CAL_REF_S``.  A timed segment is bracketed by two
calibration samples ``k0`` and ``k1`` and recorded as::

    ref_s = wall_s * CAL_REF_S / mean(k0, k1)

Calibration runs *outside* every timed interval.  The scaling cancels
machine speed (clock frequency, a slower runner, steal time that hits
the loop and the segment alike); it does not cancel cache or allocator
effects, which change the program's speed relative to the loop's.

The loop is a frozen copy of ``repro.bench.runner.calibration_loop`` as
of the commit that introduced this benchmark.  It is deliberately never
imported from ``repro``: a later change to the package cannot move the
yardstick its own speed is measured with.
"""

from __future__ import annotations

import time
from typing import Callable

#: Iterations of the calibration loop (frozen; see the module docstring).
CALIBRATION_ITERATIONS = 200_000

#: Calibration time of the reference machine, in seconds.
CAL_REF_S = 0.025

#: Loop runs per calibration sample; the sample is their minimum, which
#: sheds one-off preemptions of the loop itself.
RUNS_PER_SAMPLE = 2


def calibration_loop(iterations: int = CALIBRATION_ITERATIONS) -> int:
    """A fixed, allocation-free integer workload (an LCG)."""
    acc = 1
    for _ in range(iterations):
        acc = (acc * 1103515245 + 12345) & 0x7FFFFFFF
    return acc


def calibration_sample(
    timer: Callable[[], float] = time.perf_counter,
    loop: Callable[[], object] = calibration_loop,
) -> float:
    """Seconds one calibration loop takes right now (best of a few)."""
    best = float("inf")
    for _ in range(RUNS_PER_SAMPLE):
        start = timer()
        loop()
        best = min(best, timer() - start)
    return best


def ref_seconds(wall_s: float, k0: float, k1: float) -> float:
    """Scale ``wall_s`` by the calibration samples that bracket it."""
    return wall_s * CAL_REF_S / ((k0 + k1) / 2.0)


class Segment:
    """One timed segment: wall seconds and the calibrations bracketing it.

    ``ops`` holds the wall seconds of individual operations timed inside
    the segment (filled by the caller); they scale with the segment.
    ``value`` is whatever the timed function returned.
    """

    __slots__ = ("wall_s", "k0", "k1", "ops", "value")

    def __init__(
        self, wall_s: float, k0: float, k1: float | None = None, value: object = None
    ) -> None:
        self.wall_s = wall_s
        self.k0 = k0
        self.k1 = k1
        self.ops: list[float] = []
        self.value = value

    @property
    def scale(self) -> float:
        """Multiplier from wall seconds to reference seconds."""
        if self.k1 is None:
            raise RuntimeError("segment has no closing calibration sample")
        return ref_seconds(1.0, self.k0, self.k1)

    @property
    def ref_s(self) -> float:
        return self.wall_s * self.scale

    def ops_ref_ms(self) -> list[float]:
        scale = self.scale * 1e3
        return [wall_s * scale for wall_s in self.ops]


class RefTimer:
    """Times a sequence of segments under the bracketed-segment rule.

    ``calibrate()`` takes a sample; ``timed(fn)`` runs ``fn`` between
    two clock reads.  Consecutive segments share the sample between
    them, so a run of N segments costs N + 1 samples::

        timer = RefTimer()
        timer.calibrate()
        for window in windows:
            timer.timed(window)
            timer.calibrate()
        timer.segments  # one closed Segment per timed() call

    ``timer`` and ``loop`` are injectable so the unit tests can script
    the clock; only they ever read the wall clock.
    """

    def __init__(
        self,
        timer: Callable[[], float] = time.perf_counter,
        loop: Callable[[], object] = calibration_loop,
    ) -> None:
        self._timer = timer
        self._loop = loop
        self._last_k: float | None = None
        self.segments: list[Segment] = []

    def calibrate(self) -> float:
        """Take a sample; it closes every segment timed since the last."""
        k = calibration_sample(self._timer, self._loop)
        for segment in reversed(self.segments):
            if segment.k1 is not None:
                break
            segment.k1 = k
        self._last_k = k
        return k

    def timed(self, fn: Callable[[], object]) -> Segment:
        """Run ``fn`` as one segment, open until the next ``calibrate()``."""
        if self._last_k is None:
            raise RuntimeError("calibrate() before the first timed segment")
        start = self._timer()
        value = fn()
        segment = Segment(self._timer() - start, self._last_k, value=value)
        self.segments.append(segment)
        return segment

    def total_ref_s(self) -> float:
        return sum(segment.ref_s for segment in self.segments)

    def total_wall_s(self) -> float:
        return sum(segment.wall_s for segment in self.segments)
