"""Deterministic profiling and cost attribution (``repro.obs.prof``).

:class:`PhaseProfiler` is a deterministic instrumenting profiler.
Subsystems call ``begin(phase)`` / ``end(phase)`` at the same hook
sites that emit obs events; the profiler accounts a call *count* per
phase (pure control flow, byte-identical across same-seed runs) and,
separately, self/cumulative wall-clock nanoseconds.  Counts and
timings are written to different artifacts so the determinism gates
keep passing.

:class:`ProfSession` holds one and owns the artifact layout;
:mod:`repro.obs.prof.report` renders/diffs captured profiles.

This package is the sanctioned wall-clock funnel for the observability
layer: it is the only ``repro.obs`` code allowed to read
``time.perf_counter_ns`` (the ``determinism`` lint rule exempts it), and it must
never be imported from ``repro.core`` or ``repro.sim`` — hook sites
there hold a duck-typed ``self.prof`` slot wired from above.
"""

from repro.obs.prof.phases import PhaseProfiler
from repro.obs.prof.report import (
    diff_profiles,
    load_profile,
    render_diff_json,
    render_diff_markdown,
    render_json,
    render_markdown,
)
from repro.obs.prof.session import PROF_SCHEMA_VERSION, ProfSession

__all__ = [
    "PROF_SCHEMA_VERSION",
    "PhaseProfiler",
    "ProfSession",
    "diff_profiles",
    "load_profile",
    "render_diff_json",
    "render_diff_markdown",
    "render_json",
    "render_markdown",
]
