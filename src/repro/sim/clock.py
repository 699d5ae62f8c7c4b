"""Simulated clocks, including drifting external clocks.

The Resource Distributor schedules in ticks of the 27 MHz TCI clock.
External devices (display refresh controllers, second MPEG transport
streams) are paced by *other* crystals that drift relative to the TCI
clock.  Section 5.4 of the paper describes how an application reads both
clocks at intervals, estimates the skew, and uses ``InsertIdleCycles``
to stay in phase.  :class:`DriftingClock` models such a crystal;
``repro.core.clock_sync`` implements the estimation procedure on top.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ClockError


class SimClock:
    """The master simulation clock, counting 27 MHz ticks monotonically.

    ``now`` is a plain attribute, not a property: the kernel's dispatch
    loop reads it hundreds of thousands of times per simulated second,
    and a descriptor call on that path is measurable.  Monotonicity is
    enforced at the two mutation points instead.
    """

    __slots__ = ("now",)

    def __init__(self, start: int = 0) -> None:
        if start < 0:
            raise ClockError(f"clock cannot start at negative time {start}")
        #: Current simulation time in 27 MHz ticks.
        self.now = start

    def advance(self, ticks: int) -> int:
        """Advance the clock by ``ticks`` and return the new time."""
        if ticks < 0:
            raise ClockError(f"cannot advance the clock by {ticks} ticks")
        self.now += ticks
        return self.now

    def advance_to(self, time: int) -> int:
        """Advance the clock to absolute ``time`` (must not be in the past)."""
        if time < self.now:
            raise ClockError(f"cannot move the clock backwards: {time} < {self.now}")
        self.now = time
        return self.now


@dataclass
class DriftingClock:
    """An external clock driven by its own crystal.

    The clock reads ``offset + rate * master`` where ``rate`` is expressed
    as (1 + skew), with skew in parts-per-million.  A positive skew means
    the external clock runs fast relative to the master TCI clock.

    Real crystals also wander; ``set_skew_ppm`` lets scenarios change the
    skew mid-run (the paper notes the TCI clock "can do both" — drift
    faster or slower depending on the incoming MPEG stream).
    """

    name: str
    skew_ppm: float = 0.0
    #: Reading of this clock at the moment it was created/last re-anchored.
    _anchor_reading: float = 0.0
    #: Master time at the anchor.
    _anchor_master: int = 0

    def read(self, master_now: int) -> float:
        """This clock's reading when the master clock shows ``master_now``."""
        if master_now < self._anchor_master:
            raise ClockError(
                f"clock {self.name!r} read at master time {master_now}, before "
                f"its anchor {self._anchor_master}"
            )
        elapsed = master_now - self._anchor_master
        return self._anchor_reading + elapsed * (1.0 + self.skew_ppm / 1e6)

    def set_skew_ppm(self, skew_ppm: float, master_now: int) -> None:
        """Change the crystal's skew from ``master_now`` onward.

        The reading stays continuous: the clock is re-anchored at the
        current reading before the new rate takes effect.
        """
        self._anchor_reading = self.read(master_now)
        self._anchor_master = master_now
        self.skew_ppm = skew_ppm


class TCIClock(DriftingClock):
    """The 27 MHz TCI clock of a specific MPEG transport stream.

    The *first* MPEG stream's TCI clock is the scheduling timebase itself
    (skew 0 by construction — the paper "partially finessed the problem
    ... by using the TCI clock for scheduling").  A second transport
    stream carries its own TCI clock, modelled with non-zero skew, and
    must synchronize in software via ``InsertIdleCycles``.
    """

    def __init__(self, name: str = "tci", skew_ppm: float = 0.0) -> None:
        super().__init__(name=name, skew_ppm=skew_ppm)
