"""Materialize and run a ScenarioSpec under the strict sanitizer.

The runner is the bridge from the generator's data world back into the
live system: it rebuilds a spec as a wired
:class:`~repro.core.distributor.ResourceDistributor` (or, for cluster
specs, a :class:`~repro.cluster.simulation.ClusterSimulation`), runs it
to the horizon with every invariant check armed, and classifies what
happened:

* ``ok`` — the run completed; every sanitizer stayed clean.
* ``invariant:<rule>`` — an :class:`InvariantSanitizer` rule fired
  (``edf-order``, ``never-terminated``, ``grant-delivery``, ...).
* ``invariant:trace-<rule>`` — the live sanitizer stayed clean but the
  offline audit of the *recorded trace*
  (:func:`repro.metrics.validate.validate_trace`: ``cpu-overlap``,
  ``conservation``, ``grant-overrun``, ``period-pulled-in``, ...) did
  not.  The audit shares no state with the sanitizer, so it is a
  second, independent opinion on every run that ends ``ok``.
* ``crash:<ExceptionType>`` — the run died some other way; a kernel /
  task-protocol error the fuzzer tripped over.

Admission denials are **not** failures: the generator deliberately
over-schedules, so arrival callbacks catch :class:`AdmissionError` and
record the denial as an expected outcome of the admission test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Generator

from repro import units
from repro.errors import AdmissionError, ReproError, SanitizerViolation
from repro.fuzz.spec import ScenarioSpec, TaskSpec
from repro.metrics.validate import validate_trace
from repro.sim.rng import derive

#: Hard cap on sporadic arrivals per source (a runaway guard, not a tune).
MAX_SPORADIC_ARRIVALS = 500


#: ``sanitize`` modes a run accepts: ``strict`` aborts at the first
#: violation (the fuzz default), ``record`` logs violations as events
#: and runs to the horizon (what ``--obs-out`` exploration wants), and
#: ``off`` disables the sanitizer entirely.
SANITIZE_MODES = ("strict", "record", "off")


@dataclass
class RunResult:
    """What one scenario run produced."""

    outcome: str
    detail: str = ""
    admitted: tuple[str, ...] = ()
    denied: tuple[str, ...] = ()
    decisions_checked: int = 0
    violations: tuple[str, ...] = field(default_factory=tuple)
    #: Final sim time — the tick obs artifacts are stamped with.
    ticks: int = 0

    @property
    def ok(self) -> bool:
        return self.outcome == "ok"

    def to_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "detail": self.detail,
            "admitted": list(self.admitted),
            "denied": list(self.denied),
            "decisions_checked": self.decisions_checked,
            "violations": list(self.violations),
            "ticks": self.ticks,
        }


# -- task behaviors ---------------------------------------------------------


def _jittery(ctx) -> Generator:
    """Consume exactly the grant, in randomly sized chunks, sometimes
    asking for overtime — full delivery with an adversarial shape."""
    from repro.tasks.base import Compute, DonePeriod

    grant = ctx.grant
    assert grant is not None
    lo = units.us_to_ticks(50)
    hi = units.us_to_ticks(400)
    spent = 0
    while spent < grant.cpu_ticks:
        step = min(ctx.rng.randint(lo, hi), grant.cpu_ticks - spent)
        yield Compute(step)
        spent += step
    yield DonePeriod(overtime=ctx.rng.random() < 0.25)


def _drifting(drift_ticks: int):
    """A grant follower phase-locking to a slow external clock: it
    postpones every period start by ``drift_ticks`` (§5.4)."""
    from repro.tasks.base import Compute, DonePeriod, InsertIdleCycles

    def body(ctx) -> Generator:
        grant = ctx.grant
        assert grant is not None
        yield Compute(grant.cpu_ticks)
        yield InsertIdleCycles(drift_ticks)
        yield DonePeriod()

    return body


def _behavior_function(task: TaskSpec):
    from repro.workloads import grant_follower, greedy_worker

    if task.behavior == "greedy":
        return greedy_worker
    if task.behavior == "jittery":
        return _jittery
    if task.behavior == "drifting":
        return _drifting(task.drift_ticks_per_period)
    return grant_follower


def _burst_body(burst_ticks: int):
    """One sporadic arrival's work: a single burst, then done."""
    from repro.tasks.base import Compute

    def body(ctx) -> Generator:
        yield Compute(burst_ticks)

    return body


def definition_for(task: TaskSpec):
    """The :class:`TaskDefinition` a periodic TaskSpec describes."""
    from repro.core.resource_list import ResourceList, ResourceListEntry
    from repro.tasks.base import TaskDefinition

    function = _behavior_function(task)
    entries = [
        ResourceListEntry(
            period=level.period_ticks,
            cpu_ticks=level.cpu_ticks,
            function=function,
            label=f"{task.name}/{i}",
        )
        for i, level in enumerate(task.levels)
    ]
    return TaskDefinition(
        name=task.name,
        resource_list=ResourceList(entries),
        start_quiescent=task.start_quiescent,
    )


def sporadic_arrivals(spec: ScenarioSpec, task: TaskSpec) -> list[int]:
    """The source's jittered arrival ticks, precomputed so the schedule
    is a pure function of the spec (replays see identical arrivals).
    Every gap is an integer: jitter is drawn in whole ticks."""
    assert task.sporadic is not None
    rng = random.Random(derive(spec.seed, f"fuzz.sporadic:{task.name}"))
    arrivals: list[int] = []
    time = task.arrival_ticks
    jitter = task.sporadic.jitter_ticks
    while time < spec.horizon_ticks and len(arrivals) < MAX_SPORADIC_ARRIVALS:
        arrivals.append(time)
        gap_ticks = task.sporadic.interarrival_ticks + (
            rng.randint(-jitter, jitter) if jitter else 0
        )
        time += max(1, gap_ticks)
    return arrivals


# -- core (single-node) runs ------------------------------------------------


class _CoreRun:
    """One wired single-node run: distributor + scripted events."""

    def __init__(
        self, spec: ScenarioSpec, obs=None, sanitize: str = "strict"
    ) -> None:
        from repro.config import SimConfig
        from repro.core.distributor import ResourceDistributor
        from repro.core.sporadic import SporadicServer
        from repro.scenarios import _machine

        self.spec = spec
        self.rd = ResourceDistributor(
            machine=_machine(spec.machine),
            sim=SimConfig(seed=spec.seed),
            sanitize=sanitize != "off",
            sanitize_strict=sanitize == "strict",
            obs=obs,
        )
        if obs is not None:
            obs.add_kernel("", self.rd.kernel)
        self.admitted: list[str] = []
        self.denied: list[str] = []
        self._tids: dict[str, int] = {}
        self.server = SporadicServer(self.rd, greedy=True) if spec.server else None
        for task in spec.tasks:
            if task.sporadic is not None:
                self._script_sporadic(task)
            else:
                self._script_periodic(task)

    # -- scripting ----------------------------------------------------------

    def _admit(self, task: TaskSpec) -> None:
        try:
            thread = self.rd.admit(definition_for(task))
        except AdmissionError:
            self.denied.append(task.name)
            return
        self.admitted.append(task.name)
        self._tids[task.name] = thread.tid

    def _script_periodic(self, task: TaskSpec) -> None:
        rd = self.rd
        if task.arrival_ticks == 0:
            self._admit(task)
        else:
            rd.at(task.arrival_ticks, lambda t=task: self._admit(t), f"arrive {task.name}")

        def if_admitted(action) -> None:
            """Lifecycle events apply only if the arrival was admitted
            and the task has not already departed."""
            tid = self._tids.get(task.name)
            if tid is not None and tid in rd.resource_manager.admitted_ids():
                action(tid)

        for sleep_ticks, wake_ticks in task.quiescent_spans:
            if sleep_ticks > task.arrival_ticks:
                rd.at(
                    sleep_ticks,
                    lambda: if_admitted(rd.enter_quiescent),
                    f"sleep {task.name}",
                )
            rd.at(wake_ticks, lambda: if_admitted(rd.wake), f"wake {task.name}")
        if task.departure_ticks is not None:
            rd.at(
                task.departure_ticks,
                lambda: if_admitted(rd.exit_thread),
                f"depart {task.name}",
            )

    def _script_sporadic(self, task: TaskSpec) -> None:
        assert self.server is not None and task.sporadic is not None
        body = _burst_body(task.sporadic.burst_ticks)
        for n, time in enumerate(sporadic_arrivals(self.spec, task)):
            name = f"{task.name}#{n}"
            action = lambda nm=name: self.server.spawn(nm, body)
            if time == 0:
                action()
            else:
                self.rd.at(time, action, f"sporadic {name}")

    # -- running ------------------------------------------------------------

    def run(self) -> RunResult:
        sanitizer = self.rd.sanitizer
        outcome, detail = "ok", ""
        try:
            self.rd.run_for(self.spec.horizon_ticks)
        except SanitizerViolation as exc:
            rule = _last_rule(sanitizer)
            outcome, detail = f"invariant:{rule}", str(exc)
        except ReproError as exc:
            outcome, detail = f"crash:{type(exc).__name__}", str(exc)
        violations = (
            tuple(str(v) for v in sanitizer.report.violations)
            if sanitizer is not None
            else ()
        )
        if outcome == "ok" and violations:
            outcome, detail = f"invariant:{_last_rule(sanitizer)}", violations[-1]
        if outcome == "ok":
            audit = _trace_audit(self.rd)
            if audit:
                outcome, detail = f"invariant:trace-{audit[0].rule}", str(audit[0])
                violations += tuple(str(v) for v in audit)
        return RunResult(
            outcome=outcome,
            detail=detail,
            admitted=tuple(self.admitted),
            denied=tuple(self.denied),
            decisions_checked=(
                sanitizer.decisions_checked if sanitizer is not None else 0
            ),
            violations=violations,
            ticks=self.rd.now,
        )


def _trace_audit(rd) -> list:
    """Violations the offline validator finds in ``rd``'s recorded trace."""
    return validate_trace(rd.trace, end_time=rd.now).violations


def _last_rule(sanitizer) -> str:
    if sanitizer is not None and sanitizer.report.violations:
        return sanitizer.report.violations[-1].rule
    return "unknown"


# -- cluster runs -----------------------------------------------------------


def build_cluster(spec: ScenarioSpec, inject_fn=None, obs=None, sanitize: str = "strict"):
    """Wire a cluster spec into a ready-to-run
    :class:`~repro.cluster.simulation.ClusterSimulation` (arrivals and
    departures scripted, nothing run yet)."""
    from repro.cluster import BrokerConfig, ClusterSimulation
    from repro.scenarios import _machine

    cluster = spec.cluster
    assert cluster is not None
    sim = ClusterSimulation(
        node_count=cluster.nodes,
        seed=spec.seed,
        policy=cluster.policy,
        horizon=spec.horizon_ticks,
        latency_ticks=cluster.latency_ticks,
        jitter_ticks=cluster.jitter_ticks,
        drop_rate=cluster.drop_rate,
        machine=_machine(spec.machine),
        broker_config=BrokerConfig(migrate=cluster.migrate),
        sanitize=sanitize != "off",
        sanitize_strict=sanitize == "strict",
        obs=obs,
        obs_pipeline=obs is not None,
    )
    if inject_fn is not None:
        for node in sim.nodes.values():
            inject_fn(node.rd)
    for task in spec.tasks:
        sim.submit_at(max(1, task.arrival_ticks), task.name, definition_for(task))
        if task.departure_ticks is not None:
            sim.withdraw_at(task.departure_ticks, task.name)
    return sim


def _run_cluster(
    spec: ScenarioSpec, inject_fn=None, obs=None, sanitize: str = "strict"
) -> RunResult:
    sim = build_cluster(spec, inject_fn, obs=obs, sanitize=sanitize)
    outcome, detail = "ok", ""
    try:
        sim.run_until(spec.horizon_ticks)
        sim.settle()
    except SanitizerViolation as exc:
        rule = "unknown"
        for node in sim.nodes.values():
            if node.rd.sanitizer is not None and node.rd.sanitizer.report.violations:
                rule = node.rd.sanitizer.report.violations[-1].rule
        outcome, detail = f"invariant:{rule}", str(exc)
    except ReproError as exc:
        outcome, detail = f"crash:{type(exc).__name__}", str(exc)
    violations: list[str] = []
    decisions = 0
    for name in sorted(sim.nodes):
        sanitizer = sim.nodes[name].rd.sanitizer
        if sanitizer is None:
            continue
        decisions += sanitizer.decisions_checked
        violations.extend(f"{name}: {v}" for v in sanitizer.report.violations)
    if outcome == "ok" and not sim.all_sanitizers_ok:
        outcome, detail = "invariant:unknown", violations[-1] if violations else ""
    if outcome == "ok":
        for name in sorted(sim.nodes):
            audit = _trace_audit(sim.nodes[name].rd)
            if audit and outcome == "ok":
                outcome, detail = f"invariant:trace-{audit[0].rule}", f"{name}: {audit[0]}"
            violations.extend(f"{name}: {v}" for v in audit)
    placed = tuple(sorted(sim.broker.placements))
    return RunResult(
        outcome=outcome,
        detail=detail,
        admitted=placed,
        decisions_checked=decisions,
        violations=tuple(violations),
        ticks=sim.now,
    )


# -- entry point ------------------------------------------------------------


def run_spec(
    spec: ScenarioSpec,
    inject: str | None = None,
    obs=None,
    sanitize: str = "strict",
) -> RunResult:
    """Run one spec to its horizon under strict invariant checking.

    ``inject`` names a synthetic bug from :mod:`repro.fuzz.inject` to
    arm first — the self-test hook proving the pipeline catches,
    shrinks, and replays real scheduler defects.  ``obs`` attaches an
    :class:`~repro.obs.session.ObsSession` (cluster specs then also
    ship their arenas), and ``sanitize`` picks
    one of :data:`SANITIZE_MODES`: ``record`` keeps the run going past
    a violation so the full event stream lands in the artifacts.
    """
    from repro.fuzz.inject import injector

    if sanitize not in SANITIZE_MODES:
        raise ValueError(
            f"sanitize must be one of {', '.join(SANITIZE_MODES)}, "
            f"got {sanitize!r}"
        )
    spec.validate()
    inject_fn = injector(inject)
    try:
        if spec.cluster is not None:
            return _run_cluster(spec, inject_fn, obs=obs, sanitize=sanitize)
        run = _CoreRun(spec, obs=obs, sanitize=sanitize)
        if inject_fn is not None:
            inject_fn(run.rd)
        return run.run()
    except SanitizerViolation as exc:
        # A violation raised outside run_until (e.g. at admission time,
        # while wiring the scenario) still classifies, not crashes.
        return RunResult(outcome="invariant:unknown", detail=str(exc))
    except ReproError as exc:
        return RunResult(outcome=f"crash:{type(exc).__name__}", detail=str(exc))
