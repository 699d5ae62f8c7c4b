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
profiler opened (Σ ``PhaseProfiler.counts``, deterministic), through
the shared :mod:`benchmarks.overhead` helper — interleaved, gc-paused
per-variant minima, in calibration-loop steps, a second window before
a failure.  A ratio to the unprofiled run fails whenever the kernel
under it gets faster, with the profiler unchanged.  The scenario is
the Figure 5 load-shedding staircase (``benchmarks.builders``).
"""

from benchmarks.builders import run_figure5
from benchmarks.overhead import gate_reading, interleaved_samples, render_samples

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

VARIANTS = {
    UNPROFILED: lambda: run_figure5(ms=HORIZON_MS, prof=False),
    PROFILED: lambda: run_figure5(ms=HORIZON_MS, prof=True),
}


def profiled_frames() -> int:
    """Frames the profiler opens over the run: same seed, same count."""
    scenario = run_figure5(ms=HORIZON_MS, prof=True)
    return sum(scenario.rd.kernel.prof.counts.values())


def test_prof_overhead_within_budget(report):
    frames = profiled_frames()
    samples, pair_s, cost = gate_reading(
        lambda: interleaved_samples(VARIANTS, REPEATS),
        PROFILED,
        UNPROFILED,
        frames,
        BUDGET_STEPS,
    )
    pair_us = pair_s * 1e6
    table = render_samples(
        f"repro.obs.prof overhead — figure5, {HORIZON_MS} ms simulated", samples
    )
    table += (
        f"\n{frames} frames (sum of PhaseProfiler.counts): "
        f"{pair_us:.2f} us per begin/end pair = {cost:.1f} calibration "
        f"steps (budget {BUDGET_STEPS:.0f}); "
        f"{min(samples[PROFILED]) / min(samples[UNPROFILED]) - 1:+.1%} "
        "over this run, for context only"
    )
    report("prof_overhead", table)

    assert cost <= BUDGET_STEPS, (
        f"a begin/end pair costs {cost:.1f} calibration steps "
        f"({pair_us:.2f} us over {frames} frames; budget "
        f"{BUDGET_STEPS:.0f}): begin/end bookkeeping got heavy"
    )
