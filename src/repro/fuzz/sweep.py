"""Threshold sweep: empirically locate the admission boundary per mix.

The paper's admission test is analytic — Σ minimum rates ≤ schedulable
capacity (0.96 on the simulated MAP1000) — but the *empirical* boundary
of a concrete mix sits slightly off the analytic line: CPU requirements
are integer ticks, levels collapse under rounding, and the Sporadic
Server (when present) holds a slice of its own.  This module maps that
boundary: for each generated mix it scales every task's requirement by
a common factor and bisects the largest factor at which the whole mix
is still admitted and runs clean, reporting the utilization the mix
achieved at that point.

The resulting curve (one point per mix) is committed on its own as
``benchmarks/out/fuzz_thresholds.json`` (``repro fuzz sweep --seed 0
--out ...``): it is deterministic for a campaign seed, so a diff of
that file is threshold drift and nothing else.
"""

from __future__ import annotations

import dataclasses

from repro.fuzz.generator import CAPACITY, generate, scenario_seed
from repro.fuzz.runner import run_spec
from repro.fuzz.spec import LevelSpec, ScenarioSpec, SpecError

#: Schema of the sweep payload.
SWEEP_SCHEMA_VERSION = 1

SWEEP_KIND = "repro.fuzz.thresholds"


def _admission_mix(spec: ScenarioSpec) -> ScenarioSpec:
    """Strip a generated spec down to its pure admission shape: every
    periodic task arrives at t=0 and stays — the boundary being mapped
    is admission, not churn."""
    tasks = tuple(
        dataclasses.replace(
            task,
            arrival_ticks=0,
            departure_ticks=None,
            quiescent_spans=(),
            start_quiescent=False,
        )
        for task in spec.tasks
        if task.sporadic is None
    )
    horizon = 3 * max(
        level.period_ticks for task in tasks for level in task.levels
    )
    return dataclasses.replace(
        spec, tasks=tasks, horizon_ticks=horizon, cluster=None
    )


def _scaled(spec: ScenarioSpec, factor: float) -> ScenarioSpec:
    """Every level's CPU requirement scaled by ``factor`` (floored at
    one tick, capped at the period; collapsed levels are dropped)."""
    tasks = []
    for task in spec.tasks:
        levels: list[LevelSpec] = []
        for level in task.levels:
            cpu_ticks = min(
                level.period_ticks, max(1, round(level.cpu_ticks * factor))
            )
            if levels and cpu_ticks >= levels[-1].cpu_ticks:
                continue
            levels.append(
                LevelSpec(period_ticks=level.period_ticks, cpu_ticks=cpu_ticks)
            )
        tasks.append(dataclasses.replace(task, levels=tuple(levels)))
    return dataclasses.replace(spec, tasks=tuple(tasks))


def _fits(spec: ScenarioSpec) -> bool:
    """Does the whole mix get admitted and run clean?"""
    try:
        spec.validate()
    except SpecError:
        return False
    result = run_spec(spec)
    return result.ok and not result.denied


def _machine_capacity(machine: str) -> float:
    """The schedulable capacity of the mix's machine model — the
    analytic line its empirical threshold is measured against (1.0 on
    a frictionless ideal machine, 0.96 on the calibrated MAP1000)."""
    from repro.scenarios import _machine

    return _machine(machine).schedulable_capacity


def admission_threshold(seed: int, iterations: int = 10) -> dict:
    """Bisect the empirical admission boundary of the mix ``seed`` grows.

    Returns one curve point: the mix's shape parameters plus the summed
    minimum rate (utilization) of the largest admitted scaling."""
    mix = _admission_mix(generate(seed))
    base = mix.min_rate_sum
    capacity = _machine_capacity(mix.machine)
    # Bracket the boundary: scale so the summed minima span well below
    # and above the analytic capacity line.
    lo = 0.5 * capacity / base
    hi = 1.4 * capacity / base
    if not _fits(_scaled(mix, lo)):
        lo = 0.0  # degenerate mix; the curve point records it honestly
    for _ in range(iterations):
        mid = (lo + hi) / 2
        if _fits(_scaled(mix, mid)):
            lo = mid
        else:
            hi = mid
    threshold_spec = _scaled(mix, lo) if lo else mix
    return {
        "seed": seed,
        "tasks": len(mix.tasks),
        "machine": mix.machine,
        "machine_capacity": _machine_capacity(mix.machine),
        "server": mix.server,
        "periods_ms": sorted(
            {
                round(level.period_ticks / 27_000, 3)
                for task in mix.tasks
                for level in task.levels
            }
        ),
        "base_min_rate_sum": round(base, 6),
        "threshold_util": round(threshold_spec.min_rate_sum if lo else 0.0, 6),
        "capacity": CAPACITY,
        "iterations": iterations,
    }


def run_sweep(seed: int, mixes: int = 8, iterations: int = 10) -> dict:
    """The full sweep payload: one threshold point per generated mix."""
    points = [
        admission_threshold(
            scenario_seed(seed, index, cluster=False), iterations=iterations
        )
        for index in range(mixes)
    ]
    return {
        "schema_version": SWEEP_SCHEMA_VERSION,
        "kind": SWEEP_KIND,
        "campaign_seed": seed,
        "capacity": CAPACITY,
        "mixes": points,
    }


def render_sweep(payload: dict) -> str:
    """A terminal-friendly table of the threshold curve."""
    lines = [
        f"admission-threshold sweep (campaign seed {payload['campaign_seed']}, "
        f"capacity {payload['capacity']:.2f}):",
        "  seed              tasks  base-util  threshold-util",
    ]
    for point in payload["mixes"]:
        lines.append(
            f"  {point['seed']:<16x}  {point['tasks']:>5}  "
            f"{point['base_min_rate_sum']:>9.4f}  {point['threshold_util']:>14.4f}"
        )
    return "\n".join(lines)
