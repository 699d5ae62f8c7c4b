"""Profiler overhead: what one begin/end pair costs, in calibration steps.

The tentpole claim for ``repro.obs.prof`` mirrors the obs one: every
hook site is one attribute read plus a falsy branch when ``prof is
None`` (unprofiled must be indistinguishable from before the hooks
existed), and when a :class:`PhaseProfiler` *is* attached, the full
begin/end bookkeeping across kernel, scheduler, resource manager, grant
control, and bus must stay cheap — the gate the ``prof-smoke`` CI job
enforces.

The gate is on what the profiler costs, not on a ratio to the run it
is attached to: (profiled − unprofiled) ÷ the number of frames the
profiler opened (Σ ``PhaseProfiler.counts``, deterministic), expressed
in steps of ``repro.bench.runner.calibration_loop`` so a slower runner
reads the same.  A ratio to the unprofiled run fails whenever the
kernel under it gets faster, with the profiler unchanged.

Unprofiled, profiled and calibration runs are interleaved so clock
drift and thermal effects hit all three alike; the gate compares
per-variant minima — the ``timeit`` rationale: the minimum is the
least-contended measurement of the same deterministic work, so
scheduler and cache noise (which only ever adds time) cancels out of
the difference.  Medians are reported alongside for context.  The
scenario is the shared ``repro.bench.workloads.run_figure5`` builder —
the same workload the ``repro bench --suite obs`` runner times as
``obs.prof_overhead``.
"""

import gc
import statistics
import time

from repro.bench.runner import CALIBRATION_ITERATIONS, calibration_loop
from repro.bench.workloads import run_figure5
from repro.viz import format_table

HORIZON_MS = 400
REPEATS = 9
#: Calibration-loop steps one begin/end pair may cost.  The last
#: measurement under the ratio gate (79.9 -> 85.3 ms over 4606 frames,
#: 1.17 us a pair on a box whose calibration step takes 0.1 us) is
#: 11.7 steps; the budget is that plus a fifth, so the profiler as
#: committed (about 9 steps) passes with room for a noisy window and
#: one made half again as heavy does not.
BUDGET_STEPS = 14.0

UNPROFILED = "unprofiled (prof=None)"
PROFILED = "profiled (PhaseProfiler attached)"
CALIBRATION = f"calibration loop ({CALIBRATION_ITERATIONS} steps)"


def run_figure5_once(prof: bool):
    return run_figure5(obs="disabled", ms=HORIZON_MS, seed=11, prof=prof)


VARIANTS = {
    UNPROFILED: lambda: run_figure5_once(False),
    PROFILED: lambda: run_figure5_once(True),
    CALIBRATION: calibration_loop,
}


def timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def profiled_frames() -> int:
    """Frames the profiler opens over the run: same seed, same count."""
    scenario = run_figure5_once(True)
    return sum(scenario.rd.kernel.prof.counts.values())


def interleaved_samples() -> dict[str, list[float]]:
    for fn in VARIANTS.values():
        fn()  # warm-up: imports, allocator, caches
    samples: dict[str, list[float]] = {name: [] for name in VARIANTS}
    # Collector pauses land on random runs and this gate reads a
    # difference of a few ms, so time with gc off (each run allocates,
    # none of it cyclic).
    gc.collect()
    gc.disable()
    try:
        for _ in range(REPEATS):
            for name, fn in VARIANTS.items():
                samples[name].append(timed(fn))
    finally:
        gc.enable()
    return samples


def pair_cost(samples: dict[str, list[float]], frames: int) -> tuple[float, float]:
    """What one begin/end pair costs, from the per-variant minima:
    (seconds, calibration-loop steps)."""
    best = {name: min(times) for name, times in samples.items()}
    pair_s = (best[PROFILED] - best[UNPROFILED]) / frames
    return pair_s, pair_s / (best[CALIBRATION] / CALIBRATION_ITERATIONS)


def test_prof_overhead_within_budget(report):
    frames = profiled_frames()
    samples = interleaved_samples()
    if pair_cost(samples, frames)[1] > BUDGET_STEPS:
        # A regression must survive a second sampling window before it
        # fails the gate: a burst of background load (CI runners share
        # hardware) can inflate every sample in one window, and minima
        # only cancel noise *within* a window.  Merging the windows
        # keeps the per-variant minimum honest across both.
        for name, times in interleaved_samples().items():
            samples[name].extend(times)
    best = {name: min(times) for name, times in samples.items()}
    runs = len(samples[UNPROFILED])
    rows = [
        [
            name,
            f"{best[name] * 1e3:.1f}",
            f"{statistics.median(times) * 1e3:.1f}",
        ]
        for name, times in samples.items()
    ]
    pair_s, cost = pair_cost(samples, frames)
    pair_us = pair_s * 1e6
    table = format_table(
        ["configuration", f"best of {runs} runs (ms)", "median (ms)"],
        rows,
        title=f"repro.obs.prof overhead — figure5, {HORIZON_MS} ms simulated",
    )
    table += (
        f"\n{frames} frames (sum of PhaseProfiler.counts): "
        f"{pair_us:.2f} us per begin/end pair = {cost:.1f} calibration "
        f"steps (budget {BUDGET_STEPS:.0f}); "
        f"{best[PROFILED] / best[UNPROFILED] - 1:+.1%} over this run, "
        "for context only"
    )
    report("prof_overhead", table)

    assert cost <= BUDGET_STEPS, (
        f"a begin/end pair costs {cost:.1f} calibration steps "
        f"({pair_us:.2f} us over {frames} frames; budget "
        f"{BUDGET_STEPS:.0f}): begin/end bookkeeping got heavy"
    )
