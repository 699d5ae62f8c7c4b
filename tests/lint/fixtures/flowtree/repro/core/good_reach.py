"""Fixture: helper calls that reach no sink (clean)."""

from repro.helpers import util


def advance(now):
    return now + util.pure(1)
