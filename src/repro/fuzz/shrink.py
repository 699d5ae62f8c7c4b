"""Shrink a failing ScenarioSpec to a minimal reproducer.

Greedy delta-debugging over the spec's structure: repeatedly try a
simplification — drop a task, halve the horizon, zero an arrival, strip
churn/quiescence/jitter, collapse a resource list to its bottom level —
and keep it whenever the run still fails the *same way* (identical
outcome classification).  The result is the smallest spec this pass
sequence can reach that still reproduces the failure, which is what
gets written into the ``.trace.json`` reproducer.

Shrinking re-runs the scenario once per candidate, so the total is
bounded by ``max_runs`` — a failing 8-task spec typically lands in a
1–3 task reproducer well inside the default budget.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.fuzz.runner import DIVERGENCE, run_spec
from repro.fuzz.spec import ScenarioSpec, SpecError, TaskSpec


@dataclass
class ShrinkResult:
    """The minimal spec plus how much work finding it took."""

    spec: ScenarioSpec
    outcome: str
    runs: int


class _Shrinker:
    def __init__(self, outcome: str, inject: str | None, max_runs: int) -> None:
        self.outcome = outcome
        self.inject = inject
        self.differential = outcome.startswith(DIVERGENCE)
        self.max_runs = max_runs
        self.runs = 0

    def still_fails(self, candidate: ScenarioSpec) -> bool:
        if self.runs >= self.max_runs:
            return False
        try:
            candidate.validate()
        except SpecError:
            return False
        self.runs += 1
        result = run_spec(
            candidate, inject=self.inject, differential=self.differential
        )
        return result.outcome == self.outcome

    # -- passes --------------------------------------------------------------

    def drop_tasks(self, spec: ScenarioSpec) -> ScenarioSpec:
        """Remove tasks one at a time while the failure persists."""
        changed = True
        while changed and len(spec.tasks) > 1:
            changed = False
            for victim in list(spec.tasks):
                remaining = tuple(t for t in spec.tasks if t is not victim)
                server = spec.server and any(t.sporadic for t in remaining)
                candidate = dataclasses.replace(
                    spec, tasks=remaining, server=server
                )
                if self.still_fails(candidate):
                    spec = candidate
                    changed = True
                    break
        return spec

    def shorten_horizon(self, spec: ScenarioSpec) -> ScenarioSpec:
        """Halve the horizon while the failure persists."""
        floor = max(
            (level.period_ticks for t in spec.tasks for level in t.levels),
            default=1,
        )
        while spec.horizon_ticks // 2 > 2 * floor:
            candidate = dataclasses.replace(
                spec, horizon_ticks=spec.horizon_ticks // 2
            )
            if not self.still_fails(candidate):
                break
            spec = candidate
        return spec

    def simplify_tasks(self, spec: ScenarioSpec) -> ScenarioSpec:
        """Per-task structural simplifications, applied greedily."""
        for index in range(len(spec.tasks)):
            for simpler in _task_simplifications(spec.tasks[index]):
                tasks = list(spec.tasks)
                tasks[index] = simpler
                server = spec.server and any(t.sporadic for t in tasks)
                candidate = dataclasses.replace(
                    spec, tasks=tuple(tasks), server=server
                )
                if self.still_fails(candidate):
                    spec = candidate
        return spec

    def drop_server(self, spec: ScenarioSpec) -> ScenarioSpec:
        if spec.server and not any(t.sporadic for t in spec.tasks):
            candidate = dataclasses.replace(spec, server=False)
            if self.still_fails(candidate):
                return candidate
        return spec


def _task_simplifications(task: TaskSpec):
    """Candidate simpler versions of one task, most aggressive first."""
    if task.arrival_ticks != 0 and task.sporadic is None:
        yield dataclasses.replace(task, arrival_ticks=0)
    if task.departure_ticks is not None:
        yield dataclasses.replace(task, departure_ticks=None)
    if task.quiescent_spans or task.start_quiescent:
        yield dataclasses.replace(
            task, quiescent_spans=(), start_quiescent=False
        )
    if len(task.levels) > 1:
        yield dataclasses.replace(task, levels=(task.levels[-1],))
    if task.behavior not in ("follower",) and task.sporadic is None:
        yield dataclasses.replace(
            task, behavior="follower", drift_ticks_per_period=0
        )
    if task.sporadic is not None and task.sporadic.jitter_ticks:
        yield dataclasses.replace(
            task,
            sporadic=dataclasses.replace(task.sporadic, jitter_ticks=0),
        )


def shrink(
    spec: ScenarioSpec,
    outcome: str,
    inject: str | None = None,
    max_runs: int = 250,
) -> ShrinkResult:
    """Reduce ``spec`` while ``run_spec`` keeps producing ``outcome``
    (differentially, when ``outcome`` is a ``divergence:<field>``).

    The returned spec is re-validated and is guaranteed to still fail
    with the same classification (the original is returned unchanged if
    nothing smaller reproduces it)."""
    shrinker = _Shrinker(outcome, inject, max_runs)
    current = spec
    while True:
        before = current
        current = shrinker.drop_tasks(current)
        current = shrinker.simplify_tasks(current)
        current = shrinker.shorten_horizon(current)
        current = shrinker.drop_server(current)
        if current == before or shrinker.runs >= max_runs:
            break
    note = dict(current.notes)
    note["shrunk_from_tasks"] = len(spec.tasks)
    current = dataclasses.replace(current, notes=note)
    return ShrinkResult(spec=current, outcome=outcome, runs=shrinker.runs)
