"""Declarative service-level objectives over the event stream.

An SLO spec says what the system promised, in the vocabulary the
analysis layer already computes::

    [[slo]]
    name = "grants-delivered"
    metric = "grant_delivery_ratio"
    per = "task"                 # task | node | fleet
    op = ">="
    threshold = 1.0

    [[slo]]
    name = "activation-latency"
    metric = "p99_delivery_latency_periods"
    per = "task"
    op = "<="
    threshold = 2.0              # p99 delivery within two period lengths
    window_periods = 50          # rolling window for the streaming engine

Two evaluators share the specs:

* :func:`evaluate_slos` — offline, over finished timelines/events; this
  is what ``repro obs check`` gates CI on;
* :class:`SloEngine` — streaming: subscribe it to a live bus and it
  keeps a rolling window per subject, re-evaluating on every
  ``period-close`` and emitting an ``slo-alert`` event (with a burn
  rate) the moment an objective transitions into violation.

Burn rate is the classic error-budget reading: 1.0 means exactly at
the objective, above 1.0 means the budget is being consumed, capped at
:data:`BURN_RATE_CAP` so a zero-threshold objective stays finite and
the number stays deterministic.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

import tomllib

from repro.errors import SimulationError
from repro.obs.events import ObsEvent, SloAlertEvent
from repro.obs.analysis.timeline import (
    PeriodRecord,
    TaskTimeline,
    percentile,
)

BURN_RATE_CAP = 1000.0

_OPS: dict[str, Callable[[float, float], bool]] = {
    "<=": lambda value, threshold: value <= threshold,
    ">=": lambda value, threshold: value >= threshold,
    "<": lambda value, threshold: value < threshold,
    ">": lambda value, threshold: value > threshold,
    "==": lambda value, threshold: value == threshold,
}

#: Metrics derived from period-close streams (streaming-capable).
_PERIOD_METRIC = re.compile(
    r"^(grant_delivery_ratio|deadline_misses|voided_periods"
    r"|p(\d{1,2})_delivery_latency_(ticks|periods))$"
)
#: Metrics only meaningful across a whole node or fleet.
_SCOPE_METRICS = frozenset(
    {"violations", "denied_admissions", "overload_episodes"}
)


@dataclass(frozen=True)
class SloSpec:
    """One declared objective."""

    name: str
    metric: str
    op: str
    threshold: float
    per: str = "task"
    #: Rolling-window size (period closes per subject) for streaming.
    window_periods: int = 20
    description: str = ""


@dataclass
class SloResult:
    """One (spec, subject) evaluation."""

    spec: SloSpec
    subject: str
    value: float
    ok: bool
    burn_rate: float


def _burn_rate(value: float, threshold: float, op: str) -> float:
    """Error-budget consumption speed; 1.0 == exactly at the objective."""
    if op in (">=", ">"):
        if value <= 0:
            return BURN_RATE_CAP if threshold > 0 else 1.0
        return min(threshold / value, BURN_RATE_CAP)
    if op in ("<=", "<"):
        if threshold <= 0:
            return 1.0 if value <= 0 else BURN_RATE_CAP
        return min(value / threshold, BURN_RATE_CAP)
    return 1.0 if value == threshold else BURN_RATE_CAP


def parse_slo_toml(text: str, *, source: str = "slo.toml") -> list[SloSpec]:
    """Parse and validate a TOML document of ``[[slo]]`` tables."""
    try:
        document = tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise SimulationError(f"{source}: invalid TOML: {exc}") from None
    tables = document.get("slo")
    if not isinstance(tables, list) or not tables:
        raise SimulationError(
            f"{source}: expected at least one [[slo]] table"
        )
    specs: list[SloSpec] = []
    seen: set[str] = set()
    for index, table in enumerate(tables):
        where = f"{source} [[slo]] #{index + 1}"
        if not isinstance(table, dict):
            raise SimulationError(f"{where}: expected a table")
        name = table.get("name", "")
        if not name or not isinstance(name, str):
            raise SimulationError(f"{where}: 'name' is required")
        if name in seen:
            raise SimulationError(f"{where}: duplicate slo name {name!r}")
        seen.add(name)
        metric = table.get("metric", "")
        if metric not in _SCOPE_METRICS and not _PERIOD_METRIC.match(metric):
            raise SimulationError(
                f"{where}: unknown metric {metric!r} (period metrics: "
                f"grant_delivery_ratio, deadline_misses, voided_periods, "
                f"pNN_delivery_latency_ticks, pNN_delivery_latency_periods; "
                f"scope metrics: {', '.join(sorted(_SCOPE_METRICS))})"
            )
        op = table.get("op", "<=")
        if op not in _OPS:
            raise SimulationError(
                f"{where}: unknown op {op!r} (one of {', '.join(sorted(_OPS))})"
            )
        threshold = table.get("threshold")
        if not isinstance(threshold, (int, float)) or isinstance(threshold, bool):
            raise SimulationError(f"{where}: 'threshold' must be a number")
        per = table.get("per", "task")
        if per not in ("task", "node", "fleet"):
            raise SimulationError(
                f"{where}: 'per' must be task, node, or fleet, got {per!r}"
            )
        if metric in _SCOPE_METRICS and per == "task":
            raise SimulationError(
                f"{where}: metric {metric!r} is node/fleet-scoped; "
                f"set per = \"node\" or per = \"fleet\""
            )
        window = table.get("window_periods", 20)
        if not isinstance(window, int) or isinstance(window, bool) or window <= 0:
            raise SimulationError(
                f"{where}: 'window_periods' must be a positive integer"
            )
        specs.append(
            SloSpec(
                name=name,
                metric=metric,
                op=op,
                threshold=float(threshold),
                per=per,
                window_periods=window,
                description=str(table.get("description", "")),
            )
        )
    return specs


def load_slo_file(path: str | Path) -> list[SloSpec]:
    target = Path(path)
    if not target.is_file():
        raise SimulationError(f"no SLO spec at {target}")
    return parse_slo_toml(target.read_text(encoding="utf-8"), source=str(target))


# -- offline evaluation ----------------------------------------------------


def _period_metric_value(metric: str, records: list[PeriodRecord]) -> float:
    """Evaluate a period-derived metric over a set of period records."""
    if metric == "deadline_misses":
        return float(sum(1 for r in records if r.missed))
    if metric == "voided_periods":
        return float(sum(1 for r in records if r.voided))
    if metric == "grant_delivery_ratio":
        accountable = sum(1 for r in records if not r.voided)
        if accountable <= 0:
            return 1.0
        missed = sum(1 for r in records if r.missed)
        return (accountable - missed) / accountable
    match = _PERIOD_METRIC.match(metric)
    assert match and match.group(2), f"unexpected metric {metric}"
    q = float(match.group(2))
    if match.group(3) == "ticks":
        value = percentile([r.latency for r in records if r.latency >= 0], q)
        return float(value) if value >= 0 else 0.0
    ratios = [r.latency / r.length for r in records if r.latency >= 0 and r.length > 0]
    return percentile(ratios, q) if ratios else 0.0


def _scope_metric_value(
    metric: str, events: Iterable[ObsEvent], node: str | None
) -> float:
    """Count-style metrics over raw events; ``node=None`` means fleet."""
    if metric == "overload_episodes":
        from repro.obs.analysis.episodes import detect_episodes

        episodes = detect_episodes(events)
        return float(
            sum(1 for e in episodes if node is None or e.node == node)
        )
    count = 0
    for event in events:
        if node is not None and event.node != node:
            continue
        if metric == "violations" and event.type == "violation":
            count += 1
        elif (
            metric == "denied_admissions"
            and event.type == "admission"
            and event.outcome == "denied"
        ):
            count += 1
    return float(count)


def evaluate_slos(
    specs: Iterable[SloSpec],
    timelines: list[TaskTimeline],
    events: list[ObsEvent],
) -> list[SloResult]:
    """Offline evaluation of every spec against a finished run."""
    results: list[SloResult] = []
    nodes = sorted({line.node for line in timelines} | {e.node for e in events})
    for spec in specs:
        if spec.metric in _SCOPE_METRICS:
            if spec.per == "fleet":
                subjects = [("fleet", None)]
            else:
                subjects = [(node or "(local)", node) for node in nodes]
            for subject, node in subjects:
                value = _scope_metric_value(spec.metric, events, node)
                results.append(_result(spec, subject, value))
            continue
        if spec.per == "task":
            groups = [(line.label, line.periods) for line in timelines]
        elif spec.per == "node":
            per_node: dict[str, list[PeriodRecord]] = {}
            for line in timelines:
                per_node.setdefault(line.node or "(local)", []).extend(
                    line.periods
                )
            groups = sorted(per_node.items())
        else:
            groups = [
                ("fleet", [r for line in timelines for r in line.periods])
            ]
        for subject, records in groups:
            value = _period_metric_value(spec.metric, records)
            results.append(_result(spec, subject, value))
    return results


def _result(spec: SloSpec, subject: str, value: float) -> SloResult:
    ok = _OPS[spec.op](value, spec.threshold)
    return SloResult(
        spec=spec,
        subject=subject,
        value=value,
        ok=ok,
        burn_rate=_burn_rate(value, spec.threshold, spec.op),
    )


# -- streaming engine ------------------------------------------------------


class SloEngine:
    """Watch a live bus; alert the moment an objective goes out of bounds.

    Subscribe the engine to the same bus (an
    :class:`~repro.obs.pipeline.arena.ArenaBus`) the run emits into.  Per-task period metrics are evaluated over a
    rolling window of each subject's last ``window_periods`` closes;
    scope metrics (violations, denied admissions) are cumulative.  An
    ``slo-alert`` event is emitted on the *transition* into violation —
    not on every violating close — so a long overload produces one
    alert at entry, and a recovery re-arms the alarm.
    """

    def __init__(self, bus, specs: Iterable[SloSpec]) -> None:
        self._bus = bus
        self.specs = list(specs)
        #: (node, thread_id) -> task name, learned from admissions.
        self._names: dict[tuple[str, int], str] = {}
        #: (spec.name, subject) -> currently violating?
        self._violating: dict[tuple[str, str], bool] = {}
        #: subject -> rolling window (sized by the largest spec window).
        self._windows: dict[tuple[str, int], deque] = {}
        self._scope_counts: dict[tuple[str, str], int] = {}
        self.alerts: list[SloAlertEvent] = []
        self._period_specs = [
            s for s in self.specs if s.metric not in _SCOPE_METRICS
        ]
        self._scope_specs = [
            s for s in self.specs if s.metric in _SCOPE_METRICS
        ]
        self._max_window = max(
            (s.window_periods for s in self._period_specs), default=20
        )
        bus.subscribe(self)

    def __call__(self, event: ObsEvent) -> None:
        kind = event.type
        if kind == "slo-alert":
            return  # never react to our own output
        if kind == "admission":
            if event.outcome == "accepted" and event.thread_id >= 0:
                self._names.setdefault(
                    (event.node, event.thread_id), event.task
                )
            if event.outcome == "denied":
                self._bump_scope("denied_admissions", event)
            return
        if kind == "violation":
            self._bump_scope("violations", event)
            return
        if kind == "period-close":
            self._on_period_close(event)

    # -- period metrics ----------------------------------------------------

    def _subject(self, node: str, thread_id: int) -> str:
        name = self._names.get((node, thread_id), f"thread-{thread_id}")
        return f"{node}/{name}" if node else name

    def _on_period_close(self, event: ObsEvent) -> None:
        if not self._period_specs:
            return
        key = (event.node, event.thread_id)
        window = self._windows.get(key)
        if window is None:
            window = deque(maxlen=self._max_window)
            self._windows[key] = window
        window.append(
            PeriodRecord(
                period_index=event.period_index,
                start=event.start,
                completion=event.completion,
                deadline=event.time,
                granted=event.granted,
                delivered=event.delivered,
                missed=event.missed,
                voided=event.voided,
            )
        )
        subject = self._subject(event.node, event.thread_id)
        for spec in self._period_specs:
            records = list(window)[-spec.window_periods:]
            value = _period_metric_value(spec.metric, records)
            self._judge(spec, subject, value, records[0].start, event.time)

    # -- scope metrics -----------------------------------------------------

    def _bump_scope(self, metric: str, event: ObsEvent) -> None:
        for scope in ("fleet", event.node or "(local)"):
            key = (metric, scope)
            self._scope_counts[key] = self._scope_counts.get(key, 0) + 1
        for spec in self._scope_specs:
            if spec.metric != metric:
                continue
            subject = "fleet" if spec.per == "fleet" else (event.node or "(local)")
            value = float(self._scope_counts[(metric, subject)])
            self._judge(spec, subject, value, event.time, event.time)

    # -- alerting ----------------------------------------------------------

    def _judge(
        self,
        spec: SloSpec,
        subject: str,
        value: float,
        window_start: int,
        window_end: int,
    ) -> None:
        ok = _OPS[spec.op](value, spec.threshold)
        key = (spec.name, subject)
        was_violating = self._violating.get(key, False)
        self._violating[key] = not ok
        if ok or was_violating:
            return
        alert = SloAlertEvent(
            time=window_end,
            slo=spec.name,
            metric=spec.metric,
            subject=subject,
            value=value,
            threshold=spec.threshold,
            op=spec.op,
            burn_rate=_burn_rate(value, spec.threshold, spec.op),
            window_start=window_start if window_start >= 0 else 0,
            window_end=window_end,
        )
        self.alerts.append(alert)
        self._bus.emit(alert)
