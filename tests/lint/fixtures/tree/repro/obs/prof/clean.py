"""Fixture: ``repro.obs.prof`` may read the host wall clock.

The phase profiler's whole job is measuring host wall-clock cost; the
``determinism`` rule's wall-clock row exempts this package (timings land
in a separate, never-byte-compared artifact), while the rest of ``repro.obs`` — see
``repro/obs/bad_clock.py`` — stays in scope.
"""

import time


def stamp() -> int:
    return time.perf_counter_ns()
