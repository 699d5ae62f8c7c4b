"""Fixture: a core module importing up into presentation (layering)."""

import repro.cli
from repro.viz.timeline import plot


def render(trace):
    return plot(trace), repro.cli
