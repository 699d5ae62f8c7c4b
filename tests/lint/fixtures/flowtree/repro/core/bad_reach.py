"""Fixture: determinism sinks reachable from the core (determinism).

No wall-clock call appears in this file — every violation is one or
more hops away, through ``repro.helpers.util``.
"""

from repro.helpers import util


def activate(now):
    return now + util.stamp()


def schedule(now):
    return now + util.chain()


def perturb(now):
    return now + util.jitter()
