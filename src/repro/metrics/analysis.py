"""Context-switch and overhead analysis (section 6.1)."""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from repro import units
from repro.sim.trace import SwitchKind, TraceRecorder


@dataclass(frozen=True)
class SwitchStats:
    """Summary of one kind of context switch over a run."""

    kind: SwitchKind
    count: int
    min_us: float
    median_us: float
    mean_us: float
    total_us: float

    @classmethod
    def empty(cls, kind: SwitchKind) -> "SwitchStats":
        return cls(kind=kind, count=0, min_us=0.0, median_us=0.0, mean_us=0.0, total_us=0.0)


def summarize_switches(trace: TraceRecorder, kind: SwitchKind) -> SwitchStats:
    """Min/median/mean cost of one switch kind, in microseconds."""
    costs = [s.cost_ticks for s in trace.switches if s.kind == kind]
    if not costs:
        return SwitchStats.empty(kind)
    costs_us = [units.ticks_to_us(c) for c in costs]
    return SwitchStats(
        kind=kind,
        count=len(costs_us),
        min_us=min(costs_us),
        median_us=statistics.median(costs_us),
        mean_us=statistics.fmean(costs_us),
        total_us=sum(costs_us),
    )


def overhead_fraction(trace: TraceRecorder, start: int = 0, end: int | None = None) -> float:
    """Fraction of CPU spent on context switches over ``[start, end)``.

    This is the paper's "0.7 % of the CPU" number for the MPEG+AC3
    scenario in section 6.1.
    """
    if end is None:
        end = trace.switches[-1].time if trace.switches else start
    elapsed = end - start
    if elapsed <= 0:
        return 0.0
    cost = sum(s.cost_ticks for s in trace.switches if start <= s.time < end)
    return cost / elapsed


def switches_per_second(trace: TraceRecorder, start: int = 0, end: int | None = None) -> float:
    """Context switches per simulated second over ``[start, end)``."""
    if end is None:
        end = trace.switches[-1].time if trace.switches else start
    elapsed_sec = units.ticks_to_sec(end - start)
    if elapsed_sec <= 0:
        return 0.0
    count = sum(1 for s in trace.switches if start <= s.time < end)
    return count / elapsed_sec
