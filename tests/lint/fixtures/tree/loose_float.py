"""Fixture: float literals in tick positions (tick-units)."""

from repro.units import ms_to_ticks, ticks_to_ms

GOOD = ticks_to_ms(270000)
BAD = ticks_to_ms(1.5)


def run(sim, units):
    sim.run(horizon=2.5)
    sim.step(budget_ticks=-0.5)
    sim.run(horizon=ms_to_ticks(10))
    return units.ticks_to_ms(3.5)
