"""Profiling session: the phase book and its artifact layout.

A :class:`ProfSession` holds the deterministic :class:`PhaseProfiler`
(wired into subsystem ``prof`` slots).  ``write(directory, sim_ticks)``
lays down the profile directory that ``repro obs prof report``
consumes:

* ``prof_counts.json`` — phase call counts only.  Deterministic: two
  same-seed runs byte-diff equal, so CI gates can ``cmp`` it.
* ``prof_times.json`` — self/cumulative wall nanoseconds per phase.
  Wall-clock: never byte-compared.

The split mirrors the obs artifact contract: everything the simulation
determines goes in count-stable artifacts, everything the machine
determines goes in timing artifacts.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.prof.phases import PhaseProfiler

PROF_SCHEMA_VERSION = 1

COUNTS_FILE = "prof_counts.json"
TIMES_FILE = "prof_times.json"


class ProfSession:
    """One profiled run: the deterministic phase books."""

    def __init__(self, clock=None) -> None:
        self.phases = PhaseProfiler(clock=clock)

    def write(self, directory: str | Path, sim_ticks: int = 0) -> Path:
        """Settle any open phase frames and write the profile artifact
        directory; returns its path."""
        self.phases.finish()
        out = Path(directory)
        out.mkdir(parents=True, exist_ok=True)
        for filename, table in (
            (COUNTS_FILE, self.phases.count_table()),
            (TIMES_FILE, self.phases.timing_table()),
        ):
            doc = {
                "schema_version": PROF_SCHEMA_VERSION,
                "sim_ticks": sim_ticks,
                "phases": table,
            }
            (out / filename).write_text(
                json.dumps(doc, indent=1, sort_keys=True) + "\n"
            )
        return out
