"""Profiling session: bundles both tiers and owns the artifact layout.

A :class:`ProfSession` holds the deterministic :class:`PhaseProfiler`
(wired into subsystem ``prof`` slots) and, unless disabled, a
:class:`StackSampler`.  ``write(directory, sim_ticks)`` lays down the
profile directory that ``repro obs prof report`` consumes:

* ``prof_counts.json`` — phase call counts only.  Deterministic: two
  same-seed runs byte-diff equal, so CI gates can ``cmp`` it.
* ``prof_times.json`` — self/cumulative wall nanoseconds per phase plus
  sampler statistics.  Wall-clock: never byte-compared.
* ``flame.folded`` — collapsed-stack flamegraph text.
* ``profile.speedscope.json`` — speedscope-compatible sampled profile.

The split mirrors the obs artifact contract: everything the simulation
determines goes in count-stable artifacts, everything the machine
determines goes in timing artifacts.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.prof.flame import collapsed, speedscope_json
from repro.obs.prof.phases import PhaseProfiler
from repro.obs.prof.sampler import StackSampler

PROF_SCHEMA_VERSION = 1

COUNTS_FILE = "prof_counts.json"
TIMES_FILE = "prof_times.json"
FOLDED_FILE = "flame.folded"
SPEEDSCOPE_FILE = "profile.speedscope.json"


class ProfSession:
    """One profiled run: deterministic phase books + optional sampler."""

    def __init__(
        self,
        sampling: bool = True,
        clock=None,
        name: str = "repro",
    ) -> None:
        self.phases = PhaseProfiler(clock=clock)
        self.sampler = StackSampler() if sampling else None
        self.name = name

    def start(self) -> None:
        """Begin sampling (call from the thread being profiled)."""
        if self.sampler is not None:
            self.sampler.start()

    def stop(self) -> None:
        """Stop sampling and settle any open phase frames."""
        if self.sampler is not None:
            self.sampler.stop()
        self.phases.finish()

    def write(self, directory: str | Path, sim_ticks: int = 0) -> Path:
        """Write the profile artifact directory; returns its path."""
        out = Path(directory)
        out.mkdir(parents=True, exist_ok=True)

        counts = {
            "schema_version": PROF_SCHEMA_VERSION,
            "sim_ticks": sim_ticks,
            "phases": self.phases.count_table(),
        }
        (out / COUNTS_FILE).write_text(
            json.dumps(counts, indent=1, sort_keys=True) + "\n"
        )

        sampler_stats = None
        if self.sampler is not None:
            sampler_stats = {
                "samples": self.sampler.sample_count,
                "interval_s": self.sampler.interval_s,
                "elapsed_s": self.sampler.elapsed_s(),
            }
        times = {
            "schema_version": PROF_SCHEMA_VERSION,
            "sim_ticks": sim_ticks,
            "phases": self.phases.timing_table(),
            "sampler": sampler_stats,
        }
        (out / TIMES_FILE).write_text(
            json.dumps(times, indent=1, sort_keys=True) + "\n"
        )

        samples = self.sampler.samples if self.sampler is not None else {}
        (out / FOLDED_FILE).write_text(collapsed(samples))
        interval = self.sampler.interval_s if self.sampler is not None else 0.005
        (out / SPEEDSCOPE_FILE).write_text(
            speedscope_json(samples, name=self.name, interval_s=interval) + "\n"
        )
        return out
