"""Fixture: ``repro.obs.prof`` may read the host wall clock.

The phase profiler's whole job is measuring host wall-clock cost; the
host-state guard lets this package read the clock (timings land in a
separate, never-byte-compared artifact), while the rest of ``repro.obs``
— see ``repro/obs/bad_clock.py`` — may not.
"""

import time


def stamp() -> int:
    return time.perf_counter_ns()
