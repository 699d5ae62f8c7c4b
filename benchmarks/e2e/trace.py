"""Outside-in tracing for the per-layer run.

The benchmark may not edit the program, so spans are recorded from here:
:func:`install` replaces public callables of each layer — at class
level, before the scenario is built, because the kernel hoists bound
methods — with wrappers that record name, start, end and the enclosing
span.  Hot spans are folded online into ``(name, parent) -> calls / cum
/ self``; coarse spans (segment, RM op, cluster epoch, commit, HTTP
request) are kept individually with their parent and the op/request id
they belong to, stay in memory, and are written out when the run ends.

A span's *self* time is its duration minus the time its child spans
cover, so self times over all spans sum to the root spans' duration.
Code that is not wrapped (private helpers, the task generators the
kernel drives) is charged to the nearest wrapped caller.

Span names are ``layer:function``; the layer is the module name
without the ``repro.`` prefix.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from typing import Callable, Iterator

#: (module, class, span layer, coarse?, attributes).  Only public names.
TARGETS: tuple[tuple[str, str, str, bool, tuple[str, ...]], ...] = (
    ("repro.sim.events", "EventQueue", "sim.events", False,
     ("schedule", "cancel", "next_time", "pop_due")),
    ("repro.sim.trace", "TraceRecorder", "sim.trace", False,
     ("record_run", "record_switch", "record_deadline", "record_grant_change",
      "record_block", "note", "flush")),
    ("repro.sim.messages", "MessageBus", "sim.messages", False,
     ("send", "next_time", "pop_due")),
    ("repro.machine.cpu", "ContextSwitchModel", "machine", False,
     ("sample_ticks",)),
    ("repro.machine.interrupts", "InterruptReserve", "machine", False,
     ("charge",)),
    ("repro.machine.exclusive", "ExclusiveUnitRegistry", "machine", False,
     ("validate_units", "assign", "release_thread")),
    ("repro.core.kernel", "Kernel", "core.kernel", False,
     ("run_until", "create_periodic", "create_sporadic", "note_periodic_exit",
      "reap_exited", "start_first_period", "at")),
    ("repro.core.scheduler", "RDScheduler", "core.scheduler", False,
     ("pick", "timer_for", "notify_grant_set", "on_period_open",
      "preemption_imminent")),
    ("repro.core.resource_manager", "ResourceManager", "core.resource_manager",
     False,
     ("request_admittance", "exit_thread", "enter_quiescent", "wake",
      "change_resource_list", "policy_changed", "capacity_snapshot")),
    ("repro.core.admission", "AdmissionController", "core.admission", False,
     ("can_admit", "admit", "release", "change_min_rate")),
    ("repro.core.grant_control", "GrantController", "core.grant_control", False,
     ("compute",)),
    ("repro.core.policy_box", "PolicyBox", "core.policy_box", False,
     ("register_task", "resolve")),
    ("repro.metrics.sanitizer", "InvariantSanitizer", "metrics.sanitizer", False,
     ("on_grant_set", "on_pick", "on_memo_reuse", "on_period_close")),
    ("repro.obs.pipeline.arena", "ArenaBus", "obs.pipeline", False,
     ("emit", "emit_switch", "emit_period_close", "emit_activation")),
    ("repro.obs.pipeline.arena", "EventArena", "obs.pipeline", False,
     ("cut",)),
    ("repro.cluster.obs_pipeline", "PipelineShipping", "obs.pipeline", False,
     ("on_epoch", "route", "next_time", "finalize")),
    ("repro.obs.events", "ObsBus", "obs.session", False,
     ("emit", "emit_switch", "emit_period_close", "emit_activation")),
    ("repro.cluster.telemetry", "NodeTelemetry", "cluster.telemetry", False,
     ("snapshot",)),
    ("repro.cluster.simulation", "ClusterSimulation", "cluster.simulation", False,
     ("run_until", "settle")),
    ("repro.cluster.broker", "ClusterBroker", "cluster.broker", False,
     ("submit", "withdraw", "on_message", "check_timeouts", "next_deadline")),
    ("repro.cluster.broker", "ClusterBroker", "cluster.broker", True,
     ("on_epoch",)),
    ("repro.cluster.placement", "FirstFitPolicy", "cluster.placement", False,
     ("order",)),
    ("repro.cluster.placement", "BestFitPolicy", "cluster.placement", False,
     ("order",)),
    ("repro.cluster.placement", "AimdWeightedPolicy", "cluster.placement", False,
     ("order",)),
    ("repro.cluster.node", "ClusterNode", "cluster.node", False,
     ("handle", "load_report")),
    ("repro.serve.engine", "ServeEngine", "serve.engine", True, ("commit",)),
    ("repro.serve.engine", "ServeEngine", "serve.engine", False,
     ("task", "nodes", "stats", "state_digest", "slo_status")),
)

#: Spans that shipping nests under ``obs.pipeline:on_epoch`` etc.
_SHIP_FUNCTIONS = ("cut", "on_epoch", "route", "next_time", "finalize")
_EMIT_FUNCTIONS = ("emit", "emit_switch", "emit_period_close", "emit_activation")
_RM_OPS = ("request_admittance", "exit_thread", "enter_quiescent", "wake",
           "change_resource_list", "policy_changed")


class Tracer:
    """Span recorder: a stack, a fold table, and a list of coarse spans."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: (name, parent name) -> [calls, cumulative s, self s]
        self.folded: dict[tuple[str, str | None], list] = {}
        #: Coarse spans, each a dict with id/parent/op/name/start/end.
        self.spans: list[dict] = []
        #: Free-form sums recorded at span boundaries (e.g. rows walked).
        self.sums: dict[str, float] = {}
        # Frames are [name, child seconds, coarse span id or 0, op id].
        self._stack: list[list] = []
        self._next_id = 1

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str, coarse: bool, op: object) -> tuple[list, float]:
        stack = self._stack
        if op is None and stack:
            op = stack[-1][3]
        span_id = 0
        if coarse:
            span_id = self._next_id
            self._next_id += 1
        frame = [name, 0.0, span_id, op]
        stack.append(frame)
        return frame, self.clock()

    def _exit(self, frame: list, start: float) -> None:
        end = self.clock()
        stack = self._stack
        stack.pop()
        duration = end - start
        parent = None
        if stack:
            top = stack[-1]
            top[1] += duration
            parent = top[0]
        key = (frame[0], parent)
        record = self.folded.get(key)
        if record is None:
            self.folded[key] = [1, duration, duration - frame[1]]
        else:
            record[0] += 1
            record[1] += duration
            record[2] += duration - frame[1]
        if frame[2]:
            enclosing = 0
            for outer in reversed(stack):
                if outer[2]:
                    enclosing = outer[2]
                    break
            self.spans.append(
                {
                    "id": frame[2],
                    "parent": enclosing,
                    "op": frame[3],
                    "name": frame[0],
                    "start": start,
                    "end": end,
                }
            )

    @contextmanager
    def span(self, name: str, op: object = None) -> Iterator[None]:
        """A coarse span opened by the harness (segment, RM op)."""
        frame, start = self._enter(name, True, op)
        try:
            yield
        finally:
            self._exit(frame, start)

    def add(self, key: str, amount: float) -> None:
        self.sums[key] = self.sums.get(key, 0.0) + amount

    def wrap(self, fn: Callable, name: str, coarse: bool = False) -> Callable:
        """``fn`` recorded as span ``name`` on every call."""
        enter, leave = self._enter, self._exit

        def traced(*args, **kwargs):
            frame, start = enter(name, coarse, None)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.add("raised:" + name, 1)
                raise
            finally:
                leave(frame, start)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- reading -----------------------------------------------------------

    def totals(self) -> dict[str, list]:
        """name -> [calls, cumulative s, self s], summed over parents."""
        out: dict[str, list] = {}
        for (name, _parent), (calls, cum, self_s) in self.folded.items():
            record = out.setdefault(name, [0, 0.0, 0.0])
            record[0] += calls
            record[1] += cum
            record[2] += self_s
        return out

    def export(self) -> dict:
        """JSON-able dump: the fold table and the coarse spans."""
        return {
            "folded": [
                {"name": name, "parent": parent, "calls": calls,
                 "cum_s": cum, "self_s": self_s}
                for (name, parent), (calls, cum, self_s) in sorted(
                    self.folded.items(), key=lambda item: (item[0][0], item[0][1] or "")
                )
            ],
            "spans": self.spans,
            "sums": self.sums,
        }


def install(tracer: Tracer) -> None:
    """Wrap every target at class level, for the life of the process."""
    for module_name, class_name, layer, coarse, attrs in TARGETS:
        owner = getattr(importlib.import_module(module_name), class_name)
        for attr in attrs:
            original = owner.__dict__[attr]
            setattr(owner, attr, tracer.wrap(original, f"{layer}:{attr}", coarse))

    # Derive-on-read: the registry property replays the arena, and
    # materialize() is where the rows are walked; count them.
    session_cls = importlib.import_module("repro.obs.pipeline.session").PipelineObsSession
    prop = session_cls.__dict__["registry"]
    session_cls.registry = property(
        tracer.wrap(prop.fget, "obs.pipeline:registry"), prop.fset
    )
    bus_cls = importlib.import_module("repro.obs.pipeline.arena").ArenaBus
    materialize = tracer.wrap(bus_cls.__dict__["materialize"], "obs.pipeline:materialize")

    def counted_materialize(self):
        events = materialize(self)
        tracer.add("obs.pipeline.events_rewalked", len(events))
        return events

    bus_cls.materialize = counted_materialize


# -- per-layer metrics ---------------------------------------------------------

def _pick(totals: dict[str, list], layer: str, functions: tuple[str, ...] = ()):
    """Records of ``layer`` spans, optionally limited to ``functions``."""
    prefix = layer + ":"
    for name, record in totals.items():
        if not name.startswith(prefix):
            continue
        if functions and name[len(prefix):] not in functions:
            continue
        yield record


def calls(totals: dict[str, list], layer: str, *functions: str) -> int:
    return sum(record[0] for record in _pick(totals, layer, functions))


def self_s(totals: dict[str, list], layer: str, *functions: str) -> float:
    return sum(record[2] for record in _pick(totals, layer, functions))


def span_metrics(
    totals: dict[str, list], sums: dict[str, float], to_ref_ms: float
) -> dict[str, float]:
    """The per-layer metrics that come from the tracer alone.

    ``totals`` and ``sums`` are a tracer's; ``to_ref_ms`` converts traced
    wall seconds to reference ms (the run's effective calibration scale
    times 1000).  Metrics that come from the program's own counters are
    added by the workload that owns them.
    """
    def ms(layer: str, *functions: str) -> float:
        return self_s(totals, layer, *functions) * to_ref_ms

    rm_ops = calls(totals, "core.resource_manager", *_RM_OPS)
    return {
        "sim.events.calls": calls(totals, "sim.events"),
        "sim.events.self_ms": ms("sim.events"),
        "sim.trace.records": calls(totals, "sim.trace") - calls(totals, "sim.trace", "flush"),
        "sim.trace.self_ms": ms("sim.trace"),
        "sim.messages.self_ms": ms("sim.messages"),
        "machine.switch_samples": calls(totals, "machine", "sample_ticks"),
        "machine.self_ms": ms("machine"),
        "core.kernel.run_until_calls": calls(totals, "core.kernel", "run_until"),
        "core.kernel.dispatches": calls(totals, "core.scheduler", "pick"),
        "core.kernel.self_ms": ms("core.kernel"),
        "core.scheduler.pick.calls": calls(totals, "core.scheduler", "pick"),
        "core.scheduler.pick.self_ms": ms("core.scheduler", "pick"),
        "core.scheduler.timer_for.calls": calls(totals, "core.scheduler", "timer_for"),
        "core.scheduler.timer_for.self_ms": ms("core.scheduler", "timer_for"),
        "core.scheduler.notify_grant_set.calls": calls(
            totals, "core.scheduler", "notify_grant_set"),
        "core.scheduler.notify_grant_set.self_ms": ms(
            "core.scheduler", "notify_grant_set"),
        "core.resource_manager.ops": rm_ops,
        "core.resource_manager.self_ms": ms("core.resource_manager"),
        "core.resource_manager.denied": sums.get(
            "raised:core.resource_manager:request_admittance", 0),
        "core.admission.checks": calls(totals, "core.admission", "can_admit"),
        "core.admission.self_ms": ms("core.admission"),
        "core.grant_control.computes": calls(totals, "core.grant_control", "compute"),
        "core.grant_control.self_ms": ms("core.grant_control"),
        "core.policy_box.self_ms": ms("core.policy_box"),
        "metrics.sanitizer.checks": calls(totals, "metrics.sanitizer"),
        "metrics.sanitizer.self_ms": ms("metrics.sanitizer"),
        "obs.pipeline.emit.self_ms": ms("obs.pipeline", *_EMIT_FUNCTIONS),
        "obs.pipeline.derives": calls(totals, "obs.pipeline", "materialize"),
        "obs.pipeline.derive.self_ms": ms("obs.pipeline", "registry", "materialize"),
        "obs.pipeline.events_rewalked": sums.get("obs.pipeline.events_rewalked", 0),
        "obs.pipeline.ship.self_ms": ms("obs.pipeline", *_SHIP_FUNCTIONS),
        "obs.session.events": calls(totals, "obs.session"),
        "obs.session.self_ms": ms("obs.session"),
        "cluster.telemetry.snapshots": calls(totals, "cluster.telemetry", "snapshot"),
        "cluster.telemetry.self_ms": ms("cluster.telemetry"),
        "cluster.simulation.epochs": calls(totals, "cluster.broker", "on_epoch"),
        "cluster.simulation.settles": calls(totals, "cluster.simulation", "settle"),
        "cluster.simulation.self_ms": ms("cluster.simulation"),
        "cluster.broker.submits": calls(totals, "cluster.broker", "submit"),
        "cluster.broker.messages": calls(totals, "cluster.broker", "on_message"),
        "cluster.broker.self_ms": ms("cluster.broker"),
        "cluster.placement.orders": calls(totals, "cluster.placement", "order"),
        "cluster.placement.self_ms": ms("cluster.placement"),
        "cluster.node.handles": calls(totals, "cluster.node", "handle"),
        "cluster.node.self_ms": ms("cluster.node"),
        "serve.engine.commits": calls(totals, "serve.engine", "commit"),
        "serve.engine.commit.self_ms": ms("serve.engine", "commit"),
        "serve.engine.reads": calls(totals, "serve.engine") - calls(
            totals, "serve.engine", "commit"),
        "serve.engine.read.self_ms": ms("serve.engine") - ms("serve.engine", "commit"),
    }


def root_and_self_seconds(tracer: Tracer) -> tuple[float, float]:
    """(seconds covered by root spans, sum of every span's self time)."""
    root = sum(rec[1] for (_n, parent), rec in tracer.folded.items() if parent is None)
    total_self = sum(rec[2] for rec in tracer.folded.values())
    return root, total_self
