"""The overhead-budget gate: what one unit of instrumentation costs.

Both overhead benches (``bench_obs_overhead.py``, ``bench_prof_overhead.py``)
gate the same reading: (loaded − base) ÷ a deterministic count of the
units the loaded variant paid for (events recorded, frames opened),
expressed in steps of :func:`benchmarks.builders.calibration_loop` so a
slower runner reads the same.  A ratio to the base run is not gated: it
moves whenever the code under the instrumentation gets faster or
slower, with the instrumentation unchanged.

Variants and the calibration loop are interleaved so clock drift and
thermal effects hit all alike, and the reading is taken from
per-variant minima — the ``timeit`` rationale: the minimum is the
least-contended measurement of the same deterministic work, so
scheduler and cache noise (which only ever adds time) cancels out of
the difference.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Callable

from benchmarks.builders import CALIBRATION_ITERATIONS, calibration_loop
from repro.viz import format_table

CALIBRATION = f"calibration loop ({CALIBRATION_ITERATIONS} steps)"

Samples = dict[str, list[float]]


def _timed(fn: Callable[[], object]) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def interleaved_samples(
    variants: dict[str, Callable[[], object]], repeats: int
) -> Samples:
    """One sampling window: ``repeats`` rounds over the variants plus
    the calibration loop, after a warm-up call of each."""
    variants = {**variants, CALIBRATION: calibration_loop}
    for fn in variants.values():
        fn()  # warm-up: imports, allocator, caches
    samples: Samples = {name: [] for name in variants}
    # Collector pauses land on random runs and the gate reads a small
    # difference, so time with gc off (each run allocates, none of it
    # cyclic).
    gc.collect()
    gc.disable()
    try:
        for _ in range(repeats):
            for name, fn in variants.items():
                samples[name].append(_timed(fn))
    finally:
        gc.enable()
    return samples


def unit_cost(
    samples: Samples, loaded: str, base: str, count: int
) -> tuple[float, float]:
    """What one counted unit costs, from the per-variant minima:
    (seconds, calibration-loop steps)."""
    if count <= 0:
        raise ValueError(
            f"{loaded!r} counted {count} units: nothing to divide the cost by"
        )
    best = {name: min(times) for name, times in samples.items()}
    unit_s = (best[loaded] - best[base]) / count
    return unit_s, unit_s / (best[CALIBRATION] / CALIBRATION_ITERATIONS)


def gate_reading(
    window: Callable[[], Samples], loaded: str, base: str, count: int, budget: float
) -> tuple[Samples, float, float]:
    """The gated reading: ``(samples, seconds, steps)`` per counted
    unit, from one window of samples — or two merged when the first
    reads over ``budget``.  A regression must survive a second sampling
    window before it fails the gate: a burst of background load (CI
    runners share hardware) can inflate every sample in one window, and
    minima only cancel noise *within* a window; merging keeps the
    per-variant minimum honest across both."""
    samples = window()
    if unit_cost(samples, loaded, base, count)[1] > budget:
        for name, times in window().items():
            samples[name].extend(times)
    return samples, *unit_cost(samples, loaded, base, count)


def render_samples(title: str, samples: Samples) -> str:
    runs = len(next(iter(samples.values())))
    rows = [
        [name, f"{min(times) * 1e3:.1f}", f"{statistics.median(times) * 1e3:.1f}"]
        for name, times in samples.items()
    ]
    return format_table(
        ["configuration", f"best of {runs} runs (ms)", "median (ms)"],
        rows,
        title=title,
    )
