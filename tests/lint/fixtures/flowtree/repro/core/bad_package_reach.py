"""Fixture: a wall-clock read reached through a package ``__init__``'s
relative import (determinism)."""

from repro import clocks


def skew(now):
    return now + clocks.drift()
