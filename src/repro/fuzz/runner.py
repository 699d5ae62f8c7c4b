"""Materialize and run a ScenarioSpec under the strict sanitizer.

The runner is the bridge from the generator's data world back into the
live system: it rebuilds a spec as a wired
:class:`~repro.core.distributor.ResourceDistributor` (or, for cluster
specs, a :class:`~repro.cluster.simulation.ClusterSimulation`), runs it
to the horizon with every invariant check armed, and classifies what
happened:

* ``ok`` — the run completed; every sanitizer stayed clean.
* ``invariant:<rule>`` — an :class:`InvariantSanitizer` rule fired
  (``edf-order``, ``never-terminated``, ``grant-delivery``, ...); the
  run is named by its first violation (across cluster nodes, the
  earliest by time, then node name), in strict and record mode alike.
* ``invariant:trace-<rule>`` — the live sanitizer stayed clean but the
  offline audit of the *recorded trace*
  (:func:`repro.metrics.validate.validate_trace`: ``cpu-overlap``,
  ``conservation``, ``grant-overrun``, ``period-pulled-in``, ...) did
  not.  The audit shares no state with the sanitizer, so it is a
  second, independent opinion on every run that ends ``ok``.
* ``crash:<ExceptionType>`` — the run died some other way; a kernel /
  task-protocol error the fuzzer tripped over.
* ``divergence:<field>`` — a differential run only: the run was
  otherwise ``ok``, but the same spec on the reference
  (:mod:`repro.fuzz.reference`: the from-scratch stack for a core
  spec, the lockstep loop for a cluster spec) recorded different
  ``segments``, ``switches``, ``deadlines``, ``blocks`` or
  ``grant-changes`` (on any node), ended at another ``now``, or
  booked different ``placements``, ``denials``, ``broker-stats``,
  ``bus-stats`` or ``cluster-metrics`` (the first that differs names
  the run), or ended with another ``outcome``.

Admission denials are **not** failures: the generator deliberately
over-schedules, so arrival callbacks catch :class:`AdmissionError` and
record the denial as an expected outcome of the admission test.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Generator

from repro import units
from repro.errors import AdmissionError, ReproError, SanitizerViolation
from repro.fuzz.spec import ScenarioSpec, TaskSpec
from repro.metrics.validate import validate_trace
from repro.sim.rng import derive

#: Hard cap on sporadic arrivals per source (a runaway guard, not a tune).
MAX_SPORADIC_ARRIVALS = 500


#: The outcome prefix of a differential disagreement.  A trace that
#: expects one replays differentially, and shrinking keeps it so.
DIVERGENCE = "divergence:"

#: The :class:`~repro.sim.trace.TraceRecorder` lists a differential run
#: compares, in naming order (the outcome spells ``_`` as ``-``).
DIFFERENTIAL_FIELDS = ("segments", "switches", "deadlines", "blocks", "grant_changes")

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
    """One single-node run: a distributor (on the reference stack when
    ``reference``), then (:meth:`script`) its Sporadic Server and
    scripted events."""

    def __init__(
        self,
        spec: ScenarioSpec,
        obs=None,
        sanitize: str = "strict",
        reference: bool = False,
    ) -> None:
        from repro.config import SimConfig
        from repro.core.distributor import ResourceDistributor
        from repro.fuzz.reference import reference_stack
        from repro.scenarios import _machine

        self.spec = spec
        self.rd = ResourceDistributor(
            machine=_machine(spec.machine),
            sim=SimConfig(seed=spec.seed),
            sanitize=sanitize != "off",
            sanitize_strict=sanitize == "strict",
            obs=obs,
        )
        if reference:
            reference_stack(self.rd)
        if obs is not None:
            obs.add_kernel("", self.rd.kernel)
        self.admitted: list[str] = []
        self.denied: list[str] = []
        self._tids: dict[str, int] = {}
        self.server = None

    def script(self, inject_fn=None) -> "_CoreRun":
        """Admit what arrives at t=0, schedule everything else, then arm
        ``inject_fn``; returns self.  Admission already runs under the
        sanitizer."""
        from repro.core.sporadic import SporadicServer

        if self.spec.server:
            self.server = SporadicServer(self.rd, greedy=True)
        for task in self.spec.tasks:
            if task.sporadic is not None:
                self._script_sporadic(task)
            else:
                self._script_periodic(task)
        if inject_fn is not None:
            inject_fn(self.rd)
        return self

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


# -- classifying a run ------------------------------------------------------


def _at(node: str, violation) -> str:
    """A violation as a run reports it: prefixed by its node, if named."""
    return f"{node}: {violation}" if node else str(violation)


def _classify(nodes: dict, body) -> RunResult:
    """Run ``body`` and name what happened on ``nodes`` ({node name:
    distributor}, in name order; a core run is the one node ``""``).

    A :class:`ReproError` other than a sanitizer's is ``crash:<type>``.
    Otherwise the first sanitizer violation names the run: on one node
    the first recorded (the one strict mode raises on), across nodes the
    earliest by ``(time, node name)`` — so record mode changes how far a
    run goes, not what it is called.  A run no sanitizer objected to has
    each node's recorded trace audited (``invariant:trace-<rule>``).
    """
    outcome, detail = "ok", ""
    try:
        body()
    except SanitizerViolation as exc:
        detail = str(exc)  # strict mode: the message carries a trace excerpt
    except ReproError as exc:
        outcome, detail = f"crash:{type(exc).__name__}", str(exc)
    decisions = 0
    violations: list[str] = []
    firsts = []
    for name, rd in nodes.items():
        sanitizer = rd.sanitizer
        if sanitizer is None:
            continue
        decisions += sanitizer.decisions_checked
        found = sanitizer.report.violations
        if found:
            firsts.append((found[0].time, name, found[0]))
        violations += [_at(name, v) for v in found]
    if outcome == "ok" and firsts:
        _, name, violation = min(firsts)  # node names are unique
        outcome, detail = f"invariant:{violation.rule}", detail or _at(name, violation)
    if outcome == "ok":
        for name, rd in nodes.items():
            audit = validate_trace(rd.trace, end_time=rd.now).violations
            if audit and outcome == "ok":
                outcome, detail = f"invariant:trace-{audit[0].rule}", _at(name, audit[0])
            violations += [_at(name, v) for v in audit]
    return RunResult(
        outcome=outcome,
        detail=detail,
        decisions_checked=decisions,
        violations=tuple(violations),
    )


def _first_difference(name: str, ours, theirs, where: str = "") -> RunResult | None:
    """``divergence:<name>`` naming where ``ours`` and ``theirs`` first
    differ — a record's index, a mapping's key — or None if equal."""
    if ours == theirs:
        return None
    if isinstance(ours, dict) and isinstance(theirs, dict):
        keys = sorted({*ours, *theirs}, key=str)
        key = next(k for k in keys if ours.get(k) != theirs.get(k))
        where, ours, theirs = f"{where}[{key!r}]", ours.get(key), theirs.get(key)
    elif isinstance(ours, Sequence):
        index = next(
            (i for i, (a, b) in enumerate(zip(ours, theirs)) if a != b),
            min(len(ours), len(theirs)),
        )
        where = f"{where}[{index}]"
        ours = ours[index] if index < len(ours) else "(end)"
        theirs = theirs[index] if index < len(theirs) else "(end)"
    return RunResult(
        outcome=f"{DIVERGENCE}{name.replace('_', '-')}",
        detail=f"{name}{where}: shipped {ours}, reference {theirs}",
    )


def _cluster_books(sim) -> dict:
    """What a cluster run is judged by beyond each node's trace: the
    broker's and the bus's books and the metrics document, less each
    node's count of audited decisions (the lockstep loop re-audits a
    pick at every stop it forces)."""
    from repro.cluster import cluster_metrics

    broker = sim.broker
    metrics = cluster_metrics(sim)
    for node in metrics["nodes"].values():
        if node["sanitizer"] is not None:
            del node["sanitizer"]["decisions"]
    return {
        "placements": {
            name: (placed.node, placed.min_rate, placed.max_rate, placed.migrations)
            for name, placed in sorted(broker.placements.items())
        },
        "denials": list(broker.denials),
        "broker_stats": broker.stats,
        "bus_stats": sim.bus.stats,
        "cluster_metrics": metrics,
    }


def _run_cluster(sim, horizon: int) -> None:
    sim.run_until(horizon)
    sim.settle()
    # settle() moves only the nodes its deliveries touch; every node's
    # run is audited up to sim.now.
    sim.run_until(sim.now)


class _Run:
    """One run of a spec, core or cluster, shipped or on the reference:
    its nodes ({name: distributor}, in name order; a core run is the
    one node ``""``), the ``body`` that runs it to the horizon, and —
    once it ran — where it ended, what it admitted and denied, and the
    ``books`` it is judged by beyond each node's trace (a core run keeps
    none)."""

    def __init__(self, spec: ScenarioSpec, inject_fn, obs, sanitize: str, reference: bool):
        horizon = spec.horizon_ticks
        if spec.cluster is None:
            core = _CoreRun(spec, obs=obs, sanitize=sanitize, reference=reference)
            self.nodes = {"": core.rd}
            self.body = lambda: core.script(inject_fn).rd.run_for(horizon)
            self.now = lambda: core.rd.now
            self.placed = lambda: (tuple(core.admitted), tuple(core.denied))
            self.books = dict
            return
        from repro.fuzz.reference import lockstep

        sim = build_cluster(spec, inject_fn, obs=obs, sanitize=sanitize)
        if reference:
            lockstep(sim)
        self.nodes = {name: sim.nodes[name].rd for name in sorted(sim.nodes)}
        self.body = lambda: _run_cluster(sim, horizon)
        self.now = lambda: sim.now
        self.placed = lambda: (tuple(sorted(sim.broker.placements)), ())
        self.books = lambda: _cluster_books(sim)


def _divergence(shipped: _Run, reference: _Run) -> RunResult | None:
    """The first disagreement between two runs of one spec that both
    ended ``ok``, as a :class:`RunResult`, or None when they are the same
    run: where they ended, then each node's trace, then the books."""
    diverged = _first_difference("now", shipped.now(), reference.now())
    if diverged is not None:
        return diverged
    for node, rd in shipped.nodes.items():
        where = f" on {node}" if node else ""
        for name in DIFFERENTIAL_FIELDS:
            diverged = _first_difference(
                name,
                getattr(rd.trace, name),
                getattr(reference.nodes[node].trace, name),
                where,
            )
            if diverged is not None:
                return diverged
    ours, theirs = shipped.books(), reference.books()
    for name in ours:
        diverged = _first_difference(name, ours[name], theirs[name])
        if diverged is not None:
            return diverged
    return None


# -- entry point ------------------------------------------------------------


def run_spec(
    spec: ScenarioSpec,
    inject: str | None = None,
    obs=None,
    sanitize: str = "strict",
    differential: bool = False,
) -> RunResult:
    """Run one spec to its horizon under strict invariant checking.

    ``inject`` names a synthetic bug from :mod:`repro.fuzz.inject` to
    arm first — the self-test hook proving the pipeline catches,
    shrinks, and replays real scheduler defects.  ``obs`` attaches an
    :class:`~repro.obs.session.ObsSession` (cluster specs then also
    ship their arenas), and ``sanitize`` picks
    one of :data:`SANITIZE_MODES`: ``record`` keeps the run going past
    a violation so the full event stream lands in the artifacts.

    ``differential`` runs a spec that ends ``ok`` a second time on the
    reference — the from-scratch stack for a core spec, the lockstep
    loop for a cluster spec — and classifies a disagreement as
    ``divergence:<field>``; the admitted and denied names stay the
    shipped run's.
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
        run = _Run(spec, inject_fn, obs, sanitize, reference=False)
    except ReproError as exc:  # levels that make no valid resource list
        return RunResult(outcome=f"crash:{type(exc).__name__}", detail=str(exc))
    result = _classify(run.nodes, run.body)
    if differential and result.ok:
        reference = _Run(spec, inject_fn, None, sanitize, reference=True)
        checked = _classify(reference.nodes, reference.body)
        if not checked.ok:
            diverged = RunResult(
                outcome=f"{DIVERGENCE}outcome",
                detail=f"the reference run ended {checked.outcome}: {checked.detail}",
            )
        else:
            diverged = _divergence(run, reference)
        if diverged is not None:
            diverged.decisions_checked = result.decisions_checked
            result = diverged
    result.admitted, result.denied = run.placed()
    result.ticks = run.now()
    return result
