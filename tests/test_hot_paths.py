"""A dispatch pays for scheduling, not for name lookups.

Every function in the simulated layers — ``repro.core``, ``repro.sim``,
``repro.machine``, ``repro.baselines`` and ``repro.metrics.sanitizer``
— is read at the bytecode level, closures and comprehensions nested in
``co_consts`` included, and two things fail:

* ``IMPORT_NAME``: an ``import`` inside a function is a ``sys.modules``
  lookup and an import-lock round trip on every call;
* ``LOAD_GLOBAL`` of an ``enum.Enum`` subclass directly followed by an
  attribute load: ``ThreadState.ACTIVE`` is an unspecialised lookup
  through the enum metaclass, an order of magnitude slower than a
  global read on CPython 3.11.  Hot paths read the member's
  module-level alias instead (``STATE_ACTIVE``), bound once beside the
  class.

The code is compiled from each module's source, so a function is seen
whether or not it is reachable as an attribute; its globals are the
module's dict, which is what ``function.__globals__`` is for every
function defined there.  DESIGN.md §4 "A hot path reads names".

A grant set pays for the §6.3 passes, not for per-thread calls: a warm
``GrantController.compute`` over threads whose lists name no exclusive
unit makes as many Python-level calls at N = 256 as at N = 16, in
underload and in overload.  A helper, closure or property called per
thread, or a ``sum(<genexpr>)`` (each resumption is a call), breaks it.
DESIGN.md §4 "Grant control reads per-list tables".  The same holds
for a strict ``InvariantSanitizer.on_pick`` with a TimeRemaining head
and for ``ResourceManager._requests`` (§4 "The audit is one pass").

A metrics read folds arena rows, not events: ``ObsSession.registry``
over new rows constructs no ``ObsEvent`` and makes at most
``FOLD_CALLS_PER_ROW`` Python-level calls a row (§4 "Metrics fold from
columns").  Recording is rows too: a bus hop and a node-scoped emit
into an unsubscribed arena build no ``RpcEvent`` and call no
``dataclasses.replace``, and a scoped switch, a scoped period close and
a bus hop each run in one Python frame, their ``emit_*``'s own.

A control-plane request pays for its commit, not its envelope: a
started ``ServeApp`` owns no Task, and the ``serve_closed`` cycle
(POST, GET a task, DELETE, GET the fleet) creates none (§4 "Paths").

A cut is no decision: ``av_pipeline(0)`` stepped in 1,200 calls of
2.5 ms makes at most 1.25 times the picks of one 3 s call.

The trace keeps columns: 200 ms of a 64-task ``dense_churn``-shaped
overload leaves the trace holding at most ``TRACE_BYTES_PER_ROW``
tracemalloc bytes per recorded segment, switch and period close (§4
"The trace keeps columns").

A rack node runs when something touches it: a ``settle`` carrying one
admit round trip runs its target node's kernel and no other, and a
rack run makes at most two kernel ``run_until`` calls per touch the
test counts (deliveries, epoch and event syncs, ``run_until``
returns).

An unobserved run pays nothing for observation: the ``obs``/``prof``
hook sites of core, sim, cluster, metrics and serve are enumerated
from source; short drivers run watched execute every one; run with
every slot ``None`` they call nothing under ``repro/obs/``, and with an
unsinked ``ObsBus`` they build no ``ObsEvent`` (§4 "A hot path reads
names").
"""

from __future__ import annotations

import ast
import asyncio
import dataclasses
import dis
import enum
import functools
import gc
import importlib
import inspect
import json
import pathlib
import pkgutil
import random
import sys
import tracemalloc
import types
import weakref

import pytest

import repro
from benchmarks.builders import (
    build_overloaded_distributor,
    sheddable_list,
    swap_oldest_task,
)
from repro import SimConfig, units
from repro.config import ContextSwitchCosts, MachineConfig
from repro.cluster.node import ClusterNode
from repro.cluster.simulation import ClusterSimulation
from repro.core.distributor import ResourceDistributor
from repro.core.grant_control import GrantController, GrantRequest
from repro.core.kernel import Kernel
from repro.core.policy_box import PolicyBox
from repro.core.resource_list import ResourceList, ResourceListEntry
from repro.core.sporadic import SporadicServer
from repro.errors import AdmissionError, SimulationError
from repro.fuzz.inject import INJECTIONS
from repro.obs.events import (
    EVENT_TYPES,
    AdmissionEvent,
    GrantRecomputeEvent,
    PolicyResolutionEvent,
    RpcEvent,
    ObsBus,
    ViolationEvent,
)
from repro.obs.prof import PhaseProfiler
from repro.obs.session import ObsSession
from repro.scenarios import av_pipeline, cluster_rack, figure5
from repro.serve.app import ServeApp
from repro.serve.engine import ServeEngine
from repro.sim.messages import MessageBus
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceRecorder
from repro.tasks.base import Compute, DonePeriod, TaskDefinition
from repro.workloads import grant_follower, single_entry_definition
from tests.core.test_event_driven_dispatch import counted_picks
from tests.core.test_preemption import controlled_definition
from tests.properties.test_prop_grant_control import churn_list
from tests.serve.test_http import spec

PACKAGES = ("repro.core", "repro.sim", "repro.machine", "repro.baselines")
MODULES = ("repro.metrics.sanitizer",)

#: Functions allowed an ``import``, by qualified name.
IMPORT_EXEMPT = {
    # Runs once, when a sanitizer is attached: a run without one never
    # loads the metrics package.
    "repro.core.distributor.ResourceDistributor.attach_sanitizer",
}

#: Each enum, the module that defines it, and its alias prefix: member
#: ``M`` is bound beside the class as ``<PREFIX>_M``.
ALIASES = (
    ("repro.core.threads", "ThreadState", "STATE"),
    ("repro.core.threads", "ThreadKind", "THREAD"),
    ("repro.sim.trace", "SegmentKind", "SEGMENT"),
    ("repro.sim.trace", "SwitchKind", "SWITCH"),
    ("repro.core.kernel", "SliceEnd", "SLICE"),
    ("repro.tasks.base", "Semantics", "SEMANTICS"),
)


def _scoped_modules() -> list[types.ModuleType]:
    names = list(MODULES)
    for package in PACKAGES:
        names.append(package)
        path = importlib.import_module(package).__path__
        names.extend(info.name for info in pkgutil.walk_packages(path, package + "."))
    return [importlib.import_module(name) for name in sorted(names)]


def _functions(code: types.CodeType):
    """Every function code object nested in ``code``, depth first.
    Module and class bodies run once, at import, and are not yielded."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            if const.co_flags & inspect.CO_OPTIMIZED:
                yield const
            yield from _functions(const)


def _findings(code: types.CodeType, namespace: dict) -> list[tuple[str, str]]:
    """(function qualname, what it does) for every per-call import and
    every enum member looked up through its class."""
    found = []
    for function in _functions(code):
        previous = None
        for ins in dis.get_instructions(function):
            if ins.opname == "EXTENDED_ARG":
                continue
            if ins.opname == "IMPORT_NAME":
                found.append((function.co_qualname, f"imports {ins.argval}"))
            elif (
                ins.opname in ("LOAD_ATTR", "LOAD_METHOD")
                and previous is not None
                and previous.opname == "LOAD_GLOBAL"
            ):
                value = namespace.get(previous.argval)
                if isinstance(value, type) and issubclass(value, enum.Enum):
                    found.append(
                        (function.co_qualname, f"reads {previous.argval}.{ins.argval}")
                    )
            previous = ins
    return found


@functools.cache
def _scope_findings() -> tuple[tuple[str, str], ...]:
    """(qualified function name, what it does) across the scope."""
    found = []
    for module in _scoped_modules():
        code = module.__spec__.loader.get_code(module.__name__)
        found.extend(
            (f"{module.__name__}.{qualname}", what)
            for qualname, what in _findings(code, vars(module))
        )
    return tuple(found)


def _alias_cases():
    for module_name, enum_name, prefix in ALIASES:
        module = importlib.import_module(module_name)
        for member in getattr(module, enum_name):
            alias = f"{prefix}_{member.name}"
            yield pytest.param(module, alias, member, id=alias)


class TestHotPaths:
    def test_no_function_imports(self):
        found = [
            f"{where} {what}"
            for where, what in _scope_findings()
            if what.startswith("imports ") and where not in IMPORT_EXEMPT
        ]
        assert not found, found

    def test_no_enum_member_lookup_through_its_class(self):
        found = [
            f"{where} {what}"
            for where, what in _scope_findings()
            if what.startswith("reads ")
        ]
        assert not found, found

    def test_exemptions_name_live_imports(self):
        """An exemption whose import went away goes with it."""
        importing = {
            where for where, what in _scope_findings() if what.startswith("imports ")
        }
        assert IMPORT_EXEMPT <= importing

    def test_guard_sees_both_patterns(self):
        class Color(enum.Enum):
            RED = "red"

        source = (
            "def paint(thing):\n"
            "    import os\n"
            "    def inner():\n"
            "        return thing is Color.RED\n"
            "    return inner\n"
        )
        code = compile(source, "<probe>", "exec")
        assert _findings(code, {"Color": Color}) == [
            ("paint", "imports os"),
            ("paint.<locals>.inner", "reads Color.RED"),
        ]

    @pytest.mark.parametrize("module, alias, member", list(_alias_cases()))
    def test_alias_is_its_member(self, module, alias, member):
        assert getattr(module, alias) is member

    def test_one_name_one_meaning(self):
        """Every enum in scope has its aliases, and a module that binds
        a member binds it under that one name."""
        names = {
            member: f"{prefix}_{member.name}"
            for module_name, enum_name, prefix in ALIASES
            for member in getattr(importlib.import_module(module_name), enum_name)
        }
        enums = {type(member) for member in names}
        for module in _scoped_modules():
            for name, value in vars(module).items():
                if isinstance(value, enum.Enum):
                    assert names.get(value) == name, (module.__name__, name, value)
                elif (
                    isinstance(value, type)
                    and issubclass(value, enum.Enum)
                    and value.__module__ == module.__name__
                ):
                    assert value in enums, f"{module.__name__}.{name} has no aliases"


# -- the §6.3 passes stay inline ----------------------------------------------


def _unit_free_population(n: int, overload: bool):
    """A controller and ``n`` requests under the invented 1/N policy.
    Underload: two levels, maxima summing to 0.9.  Overload: the
    ``dense_churn``-shaped lists the grant-control reference is checked
    on; seed 1 takes all three passes at both sizes the test uses."""
    rng = random.Random(1)
    box = PolicyBox(capacity=0.96)
    period = units.ms_to_ticks(10)
    requests = []
    for i in range(n):
        if overload:
            resource_list = churn_list(rng, n)
        else:
            resource_list = ResourceList(
                [
                    ResourceListEntry(period, round(period * rate), grant_follower)
                    for rate in (0.9 / n, 0.45 / n)
                ]
            )
        requests.append(GrantRequest(i, box.register_task(f"t{i}"), resource_list))
    return GrantController(0.96, box), requests


def _python_calls(function) -> int:
    """Python-level calls made while ``function()`` runs, itself
    included.  ``sys.setprofile`` reports a Python frame starting or
    resuming (a generator's next item) as ``"call"``; builtins such as
    ``sorted``, ``sum`` or ``bisect_right`` are ``"c_call"`` and not
    counted.  The count is deterministic: earlier tests' garbage is
    collected first, so no finalizer it holds runs inside the count."""
    gc.collect()
    count = 0

    def hook(frame, event, arg):
        nonlocal count
        if event == "call":
            count += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        function()
    finally:
        sys.setprofile(previous)
    return count


class TestGrantPassesStayInline:
    @pytest.mark.parametrize("overload", [False, True], ids=["underload", "overload"])
    def test_calls_do_not_grow_with_threads(self, overload):
        counts = {}
        for n in (16, 256):
            controller, requests = _unit_free_population(n, overload)
            assert controller.compute(requests).passes == (3 if overload else 0)
            # Warm: every thread keeps its Grant, as between RM ops.
            counts[n] = _python_calls(lambda: controller.compute(requests))
        assert counts[16] == counts[256], counts

    def test_counter_sees_generator_resumptions(self):
        short, long = list(range(10)), list(range(100))
        generator = [_python_calls(lambda: sum(v for v in xs)) for xs in (short, long)]
        listed = [_python_calls(lambda: sum([v for v in xs])) for xs in (short, long)]
        assert generator[1] - generator[0] == 90
        assert listed[1] == listed[0]


# -- the trace keeps columns -----------------------------------------------------

#: Measured 30.7 bytes per row on CPython 3.11 (29 / 21 / 34 bytes of
#: column per segment / switch / close, plus ``array``'s over-allocation);
#: the bound leaves 30 % for another interpreter's growth policy.
#: Keeping one frozen record per row reads about 185.
TRACE_BYTES_PER_ROW = 40


def _trace_bytes_per_row() -> float:
    """What the trace of 200 ms of 64 ``dense_churn``-shaped tasks (real
    switch costs, so system segments too) still holds when the run
    ends, per row: the traced bytes its release frees.  Counting what
    is freed, not where it was allocated, charges the trace for records
    built anywhere."""
    rng = random.Random(0)
    rd = ResourceDistributor(sim=SimConfig(seed=0))
    rd.admit_many(
        [
            TaskDefinition(name=f"churn{i}", resource_list=churn_list(rng, 64))
            for i in range(64)
        ]
    )
    trace = rd.trace
    tracemalloc.start()
    try:
        rd.run_for(units.ms_to_ticks(200))
        rows = len(trace.segments) + len(trace.switches) + len(trace.deadlines)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        released = weakref.ref(trace)
        rd.kernel.trace = TraceRecorder()
        del trace
        gc.collect()
        assert released() is None
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert rows > 3_000  # segments, switches and closes of a busy machine
    return freed / rows


class TestTraceKeepsColumns:
    def test_retained_bytes_per_row(self):
        assert _trace_bytes_per_row() <= TRACE_BYTES_PER_ROW


# -- the audit and the RM's requests stay inline -------------------------------


def _live_distributor(n: int):
    """``n`` admitted tasks under the strict sanitizer, a millisecond
    in: each is mid-period, so the TimeRemaining queue has a head."""
    rd = ResourceDistributor(sim=SimConfig(seed=1), sanitize=True, sanitize_strict=True)
    rd.admit_many([single_entry_definition(f"t{i}", 10, 0.9 / n) for i in range(n)])
    rd.run_for(units.ms_to_ticks(1))
    now = rd.kernel.now
    assert any(t.eligible_time_remaining(now) for t in rd.kernel.periodic_threads())
    return rd, now


class TestAuditAndRequestsStayInline:
    """A strict ``on_pick`` re-derives the decision in one pass with no
    per-thread call; ``_requests`` copies the RM's request map.  DESIGN.md §4 "The audit is one pass"."""

    @pytest.mark.parametrize("what", ["on_pick", "_requests"])
    def test_calls_do_not_grow_with_threads(self, what):
        counts = {}
        for n in (16, 256):
            rd, now = _live_distributor(n)
            manager = rd.resource_manager
            chosen = rd.scheduler.pick(now)
            call = {
                "on_pick": lambda: rd.sanitizer.on_pick(chosen, now),
                "_requests": manager._requests,
            }[what]
            counts[n] = _python_calls(call)
            assert rd.sanitizer.ok
        assert counts[16] == counts[256], counts


# -- an RM op pays for what it changed -------------------------------------------


class TestRMOpPaysForWhatChanged:
    """A warm ``exit_thread`` + ``admit`` pair on a distributor held in
    permanent overload, every thread's first grant still pending: the
    Resource Manager's running sums settle the overload verdict, the
    claim order is sorted over plain keys, and the Scheduler's
    notification revisits the changed and the moved threads only, so
    the pair makes the same calls at any population (DESIGN.md §4 "A
    notification revisits what can move").  A notification that
    re-files every pending thread makes 1,123 calls at N = 256 against
    163 at N = 16, the difference all ``GrantSet.get`` and
    ``SimThread.in_period``."""

    def test_calls_do_not_grow_with_threads(self):
        counts = {}
        for n in (16, 256):
            rd, tids = build_overloaded_distributor(n)
            fresh = [
                TaskDefinition(name=f"swap{i}", resource_list=sheddable_list(n))
                for i in range(3)
            ]
            swap_oldest_task(rd, tids, fresh[0])
            swap_oldest_task(rd, tids, fresh[1])
            counts[n] = _python_calls(lambda: swap_oldest_task(rd, tids, fresh[2]))
            result = rd.resource_manager.last_result
            assert result.passes >= 2 and len(rd.scheduler._pending_activation) == n
        assert counts[16] == counts[256], counts


# -- a poll is not a scheduling decision ----------------------------------------


class TestPollsDoNotRepick:
    """A greedy Sporadic Server's poll — ``Poll(POLL_COST)`` then
    ``DonePeriod(overtime=True)`` — changes no queue, so the kernel keeps
    the slice going rather than re-running ``pick`` and ``timer_for``
    (DESIGN.md §4 "A slice costs its scheduling events"), and charges a
    run of such polls in one step rather than resuming the server's body
    for each.  The audit still sees every poll."""

    def test_picks_follow_switches_not_polls(self):
        scenario = av_pipeline(61)
        picks = counted_picks(scenario.rd.scheduler)
        scenario.rd.run_for(units.sec_to_ticks(1))
        # Re-picking after every poll made 56,394 picks for 133 switches.
        assert len(picks) <= 2 * len(scenario.rd.trace.switches)

    def test_every_poll_is_still_audited(self):
        scenario = figure5(seed=0)
        scenario.rd.attach_sanitizer(strict=True)
        scenario.rd.run_for(units.ms_to_ticks(400))
        assert scenario.rd.sanitizer.ok
        # One decision per poll, as when every poll was re-picked.
        assert scenario.rd.sanitizer.decisions_checked == 4_585

    def test_the_server_body_runs_per_event_not_per_poll(self, monkeypatch):
        scenario = av_pipeline(61)
        looks = []
        look = SporadicServer._next_ready

        def counted(server):
            looks.append(None)
            return look(server)

        monkeypatch.setattr(SporadicServer, "_next_ready", counted)
        scenario.rd.run_for(units.sec_to_ticks(1))
        # Resuming the body once per poll looked at the queue 56,269
        # times for 133 switches.
        assert len(looks) <= 2 * len(scenario.rd.trace.switches)

    def test_every_poll_of_a_charged_run_is_still_audited(self):
        scenario = av_pipeline(61)
        scenario.rd.attach_sanitizer(strict=True)
        scenario.rd.run_for(units.sec_to_ticks(1))
        assert scenario.rd.sanitizer.ok
        # One decision per poll, as when every poll was re-picked.
        assert scenario.rd.sanitizer.decisions_checked == 56_394


# -- a cut is not a pick ---------------------------------------------------------


class TestCutsDoNotRepick:
    """A slice the caller's horizon stopped resumes in the next call
    without ``pick`` and ``timer_for`` while no scheduling event has
    fired (DESIGN.md §4 "The hold rule"), so stepping a run in short
    calls costs about the picks of one call."""

    @staticmethod
    def _picks(calls: int, step_ms: float) -> int:
        scenario = av_pipeline(0)
        picks = counted_picks(scenario.rd.scheduler)
        for _ in range(calls):
            scenario.rd.run_for(units.ms_to_ticks(step_ms))
        return len(picks)

    def test_short_calls_pick_about_as_often_as_one(self):
        whole = self._picks(1, 3_000)
        stepped = self._picks(1_200, 2.5)
        # Re-picking at every cut made 1,600 picks against 401.
        assert stepped <= 1.25 * whole, (stepped, whole)


# -- a metrics read folds columns, not events ------------------------------------

#: Python-level calls a registry read may make per new row: a row-by-row
#: kind's range wrapper and row fold, and one keyed update per metric it
#: feeds — six for a grant recompute, the most any kind feeds (a kind
#: folded a range at a time makes its calls per range, not per row).
FOLD_CALLS_PER_ROW = 8


def _observed(rows: int) -> ObsSession:
    """A session with ``rows`` unread rows cycling over the folded
    kinds, through the fast paths and the generic emit alike."""
    session = ObsSession()
    bus = session.bus
    for i in range(rows):
        node = f"node{i % 3:02d}"
        slot = i % 8
        if slot == 0:
            bus.emit_switch(i, 1, 2, "involuntary", 54, node=node)
        elif slot == 1:
            bus.emit_period_close(
                i, 1, i, i - 270, i - 27, 270, 243, True, True, node=node
            )
        elif slot == 2:
            bus.emit_activation(i, 2, node=node)
        elif slot == 3:
            bus.emit(GrantRecomputeEvent(time=i, node=node, requests=3, headroom=0.2))
        elif slot == 4:
            bus.emit(AdmissionEvent(time=i, node=node, headroom=0.4))
        elif slot == 5:
            bus.emit(
                RpcEvent(time=i, node=node, action="retry", kind="admit", attempt=2)
            )
        elif slot == 6:
            bus.emit(PolicyResolutionEvent(time=i, node=node, invented=True))
        else:
            bus.emit(ViolationEvent(time=i, node=node, rule="edf"))
    return session


class TestMetricsFoldFromColumns:
    """``ObsSession.registry`` folds each new arena row through the
    metrics' keyed updates: no typed event, no per-row label check."""

    @pytest.mark.parametrize("rows", [100, 1_000])
    def test_a_read_constructs_no_event(self, rows):
        inits = {cls.__init__.__code__ for cls in EVENT_TYPES.values()}
        built = []

        def hook(frame, event, arg):
            if event == "call" and frame.f_code in inits:
                built.append(frame.f_code)

        session = _observed(rows)
        previous = sys.getprofile()
        sys.setprofile(hook)
        try:
            session.registry
        finally:
            sys.setprofile(previous)
        assert built == []
        closed = session.registry.get("repro_periods_closed_total")
        assert closed.value(node="node00") > 0

    def test_calls_grow_by_a_constant_per_row(self):
        counts = {}
        for rows in (100, 1_000):
            session = _observed(rows)
            counts[rows] = _python_calls(lambda: session.registry)
        assert counts[1_000] - counts[100] <= FOLD_CALLS_PER_ROW * 900, counts

    def test_a_negative_switch_cost_still_raises_on_the_read(self):
        session = ObsSession()
        session.bus.emit_switch(1, 1, 2, "voluntary", -5)
        with pytest.raises(SimulationError, match="cannot decrease"):
            session.registry

    def test_a_negative_cost_inside_a_range_still_raises_on_the_read(self):
        session = ObsSession()
        scope = session.scoped("node00")
        for time, cost in enumerate((5, -5, 7)):
            scope.emit_switch(time, 1, 2, "voluntary", cost)
        (pending,) = session.bus._ranges({}, "node00")
        assert pending[1:] == (0, 3)  # one range holds all three rows
        with pytest.raises(SimulationError, match="cannot decrease"):
            session.registry


def _calls_into(codes: set, function) -> list:
    """The code objects in ``codes`` entered while ``function()`` runs."""
    entered = []

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            entered.append(frame.f_code.co_qualname)

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        function()
    finally:
        sys.setprofile(previous)
    return entered


class TestRecordingIsRows:
    """An unsubscribed arena takes a bus hop and a scoped emit as a row."""

    def test_a_bus_hop_and_a_scoped_emit_build_no_event(self):
        session = ObsSession()
        bus = MessageBus(RngRegistry(7).stream("bus"), latency_ticks=10)
        bus.obs = session.bus
        scoped = session.scoped("node03")
        admission = AdmissionEvent(time=5, task="t", headroom=0.5)

        def record():
            bus.send("broker", "node03", "admit", {"request_id": "admit:t:1"}, 0)
            bus.pop_due(10)
            scoped.emit(admission)

        built = _calls_into(
            {RpcEvent.__init__.__code__, dataclasses.replace.__code__}, record
        )
        assert built == []
        hops = session.bus.arenas[""].kinds["rpc"].columns
        assert hops["action"] == ["send", "receive"]
        assert hops["request_id"] == ["admit:t:1", "admit:t:1"]
        assert hops["time"] == [0, 10]
        (stamped,) = [e for e in session.events if e.type == "admission"]
        assert stamped == dataclasses.replace(admission, node="node03")

    def test_a_row_runs_in_its_emitters_frame(self):
        """No helper, lookup or wrapper per row (a scoped switch once
        took five frames: scope, bus, row helper, arena lookup, append)."""
        session = ObsSession()
        scoped = session.scoped("node03")
        rows = {
            "switch": (scoped.emit_switch, (5, 1, 2, "voluntary", 54)),
            "period close": (
                scoped.emit_period_close,
                (9, 1, 0, 0, 4, 270, 270, False, False),
            ),
            "bus hop": (
                session.bus.emit_rpc,
                (5, "send", "broker", "node03", "admit", "admit:t:1", "t1"),
            ),
        }
        for emit, args in rows.values():
            emit(*args)  # the kind's first row binds its writer
        frames = {
            name: _python_calls(functools.partial(emit, *args))
            for name, (emit, args) in rows.items()
        }
        assert frames == {"switch": 1, "period close": 1, "bus hop": 1}
        assert session.bus.total_emitted == 6


async def _exchange(reader, writer, method: str, path: str, body: bytes = b"") -> int:
    writer.write(
        f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
        f"Content-Length: {len(body)}\r\n\r\n".encode() + body
    )
    head = await reader.readuntil(b"\r\n\r\n")
    length = int(head.split(b"Content-Length: ")[1].split(b"\r\n")[0])
    await reader.readexactly(length)
    return int(head.split(b" ")[1])


async def _serve_closed_cycle(reader, writer) -> list[int]:
    """One ``serve_closed`` cycle: POST a task, GET it, DELETE it, GET
    the fleet; the four statuses."""
    body = json.dumps(spec("a")).encode()
    return [
        await _exchange(reader, writer, "POST", "/v1/tasks", body),
        await _exchange(reader, writer, "GET", "/v1/tasks/a"),
        await _exchange(reader, writer, "DELETE", "/v1/tasks/a"),
        await _exchange(reader, writer, "GET", "/v1/nodes"),
    ]


class TestRequestsRunNoTask:
    """Reads are answered from ``data_received``, mutations in the loop
    turn of the group commit that applies them (their answers' done
    callbacks run inside ``set_result``): no Task per request, no
    writer Task."""

    def test_a_started_app_owns_no_task(self):
        async def main():
            app = ServeApp(ServeEngine(nodes=2, seed=7, policy="first-fit"))
            await app.start()
            try:
                return asyncio.all_tasks() - {asyncio.current_task()}
            finally:
                await app.stop()

        assert asyncio.run(main()) == set()

    def test_the_serve_closed_cycle_creates_no_task(self):
        async def main():
            app = ServeApp(ServeEngine(nodes=2, seed=7, policy="first-fit"))
            await app.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", app.server.port
            )
            try:
                # Accepting the connection is the loop's own Task, done
                # once the first answer is back.
                assert await _exchange(reader, writer, "GET", "/healthz") == 200
                created = []
                loop = asyncio.get_running_loop()

                def factory(loop, coro):
                    created.append(coro.__qualname__)
                    return asyncio.Task(coro, loop=loop)

                loop.set_task_factory(factory)
                statuses = await _serve_closed_cycle(reader, writer)
                loop.set_task_factory(None)
                # ... and no Task of the server's was woken either.
                running = asyncio.all_tasks() - {asyncio.current_task()}
                return statuses, created, running
            finally:
                writer.close()
                await app.stop()

        statuses, created, running = asyncio.run(main())
        assert statuses == [201, 200, 200, 200]
        assert created == []
        assert running == set()


def _count_kernel_runs(monkeypatch) -> dict:
    """Count ``Kernel.run_until`` calls per kernel from now on."""
    calls: dict = {}
    original = Kernel.run_until

    def counted(self, horizon):
        calls[self] = calls.get(self, 0) + 1
        return original(self, horizon)

    monkeypatch.setattr(Kernel, "run_until", counted)
    return calls


def _count(monkeypatch, cls, name: str, counts: dict, key: str, when=None) -> None:
    """Count calls of ``cls.name`` (those ``when(self)`` holds for)
    under ``counts[key]``."""
    original = getattr(cls, name)

    def counted(self, *args, **kwargs):
        if when is None or when(self):
            counts[key] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, counted)


class TestNodesRunWhenTouched:
    """A rack node's kernel runs only when something touches it — a bus
    delivery to it, an epoch, due external events, a ``run_until``
    return — not at every global stop (§4 "Paths": the lockstep loop
    is the test suite's reference)."""

    def test_a_settle_runs_only_the_node_it_touches(self, monkeypatch):
        sim = ClusterSimulation(node_count=4, seed=0, policy="first-fit")
        sim.run_until(units.ms_to_ticks(10))
        calls = _count_kernel_runs(monkeypatch)
        sim.broker.submit("one", single_entry_definition("one", 10.0, 0.2), sim.now)
        assert sim.settle()
        node = sim.nodes[sim.broker.placements["one"].node]
        assert sim.now < units.ms_to_ticks(11)  # one round trip, no epoch
        assert calls == {node.rd.kernel: 1}

    def test_kernel_runs_stay_within_twice_the_touches(self, monkeypatch):
        """``run --scenario cluster_rack --seed 7 --duration-ms 400``."""
        sim = cluster_rack(seed=7, horizon_sec=0.4, sanitize=True)
        nodes = len(sim.nodes)
        counts = {"deliveries": 0, "epochs": 0, "event stops": 0, "returns": 0}
        _count(monkeypatch, ClusterNode, "handle", counts, "deliveries")
        _count(monkeypatch, ClusterSimulation, "_epoch", counts, "epochs")
        _count(
            monkeypatch, ClusterSimulation, "_fire_events", counts, "event stops",
            when=lambda s: s.events.next_time() is not None
            and s.events.next_time() <= s.now,
        )
        _count(monkeypatch, ClusterSimulation, "run_until", counts, "returns")
        calls = _count_kernel_runs(monkeypatch)
        sim.run_until(sim.horizon)
        touches = counts["deliveries"] + nodes * (
            counts["epochs"] + counts["event stops"] + counts["returns"]
        )
        assert counts["epochs"] == 8 and counts["deliveries"] > 0
        assert sum(calls.values()) <= 2 * touches, (sum(calls.values()), counts)


# -- an unobserved run pays nothing for observation -------------------------------

#: The packages whose hook sites the rule judges, and how many sites the
#: enumeration must find: 51 when this rule replaced the static
#: ``obs-unguarded-emit`` lint rule, which judged the same sites.
HOOK_PACKAGES = ("core", "sim", "cluster", "metrics", "serve")
HOOK_SITES = 51

SRC = pathlib.Path(repro.__file__).parent


@dataclasses.dataclass(frozen=True)
class HookSite:
    path: str
    line: int
    #: The enclosing function: its name and first line (decorators
    #: included), as its code object has them.
    function: tuple[str, int]

    def __str__(self) -> str:
        return f"{pathlib.Path(self.path).relative_to(SRC)}:{self.line}"


def _tail(node: ast.expr) -> str | None:
    """The last name of a dotted ``a.b.c`` (``c``), or None when the
    expression is not a plain dotted name."""
    tail = node.attr if isinstance(node, ast.Attribute) else None
    while isinstance(node, ast.Attribute):
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return tail or node.id


def _is_hook(call: ast.Call) -> bool:
    """``begin``/``end`` on a ``prof``-named receiver, ``emit``/
    ``emit_*`` on an ``obs``-named one, or ``.emit(<Name>Event(...))``."""
    func = call.func
    if not isinstance(func, ast.Attribute):
        return False
    receiver = _tail(func.value)
    if receiver is None:
        return False
    receiver = receiver.lower()
    if func.attr in ("begin", "end"):
        return "prof" in receiver
    if func.attr == "emit" and call.args and isinstance(call.args[0], ast.Call):
        if (_tail(call.args[0].func) or "").endswith("Event"):
            return True
    hook = func.attr == "emit" or func.attr.startswith("emit_")
    return hook and "obs" in receiver


def _sites_in(path: pathlib.Path, node: ast.AST, function: tuple[str, int]):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([child.lineno] + [d.lineno for d in child.decorator_list])
            yield from _sites_in(path, child, (child.name, first))
            continue
        if isinstance(child, ast.Call) and _is_hook(child):
            yield HookSite(str(path), child.lineno, function)
        yield from _sites_in(path, child, function)


@functools.cache
def _hook_sites() -> tuple[HookSite, ...]:
    """Every hook site in the simulated and serving layers, from source."""
    sites = []
    for package in HOOK_PACKAGES:
        for path in sorted((SRC / package).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            sites.extend(_sites_in(path, tree, ("<module>", 1)))
    return tuple(sites)


def _lines_run(drive) -> set[tuple[str, int]]:
    """The hook-site lines ``drive()`` executes: ``sys.settrace``, line
    events only in the functions that hold a site."""
    lines: dict[str, set[int]] = {}
    for site in _hook_sites():
        lines.setdefault(site.path, set()).add(site.line)
    traced: dict[types.CodeType, bool] = {}
    run = set()

    def line(frame, event, arg):
        if event == "line":
            run.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, arg):
        code = frame.f_code
        holds = traced.get(code)
        if holds is None:
            wanted = lines.get(code.co_filename, ())
            holds = traced[code] = any(n in wanted for _, _, n in code.co_lines())
        return line if holds else None

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        drive()
    finally:
        sys.settrace(previous)
    return run


def _entered(drive) -> set[types.CodeType]:
    """The code objects of every Python frame ``drive()`` starts."""
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        drive()
    finally:
        sys.setprofile(previous)
    return entered


def _recording_rd(obs, prof, machine=None, seed: int = 0) -> ResourceDistributor:
    """A distributor under a record-mode sanitizer, ``obs`` and
    ``prof`` in its slots."""
    rd = ResourceDistributor(
        machine=machine or MachineConfig.ideal(),
        sim=SimConfig(seed=seed),
        obs=obs,
        sanitize=True,
        sanitize_strict=False,
    )
    rd.attach_prof(prof)
    return rd


def _drive_av(obs, prof) -> None:
    """§6.1's pipeline: its greedy Sporadic Server's polls are replayed
    in ``Kernel._poll``."""
    scenario = av_pipeline(obs=obs)
    scenario.rd.attach_prof(prof)
    scenario.rd.attach_sanitizer(False)
    scenario.run_for(units.ms_to_ticks(60))


def _drive_overload(obs, prof) -> None:
    """Permanent overload: every RM op takes the policy path; one
    admission is denied."""
    n = 8
    rd = _recording_rd(obs, prof)
    tids = [
        thread.tid
        for thread in rd.admit_many(
            [TaskDefinition(f"t{i}", sheddable_list(n)) for i in range(n)]
        )
    ]
    for i in range(2):
        swap_oldest_task(rd, tids, TaskDefinition(f"swap{i}", sheddable_list(n)))
    with pytest.raises(AdmissionError):
        rd.admit(single_entry_definition("huge", 10, 0.99))
    rd.run_for(units.ms_to_ticks(20))


def _drive_grace(obs, prof) -> None:
    """A controlled-preemption task preempted by a shorter period: the
    grace slice (``tests/core/test_preemption.py``'s pair)."""
    machine = MachineConfig(
        interrupt_reserve=0.0,
        switch_costs=ContextSwitchCosts.zero(),
        overlap_override_ticks=0,
        grace_period_ticks=units.us_to_ticks(200),
        admission_cost_ticks=0,
    )
    rd = _recording_rd(obs, prof, machine, seed=5)
    rd.admit(controlled_definition("nice", check_interval_us=100))
    rd.admit(single_entry_definition("short", period_ms=10, rate=0.3))
    rd.run_for(units.ms_to_ticks(40))


_FIVE_MS = units.ms_to_ticks(5)


def _stops_short(ctx):
    """Yield 10 µs before each 5 ms boundary."""
    while True:
        yield Compute(_FIVE_MS - ctx.now % _FIVE_MS - units.us_to_ticks(10))
        yield DonePeriod()


def _drive_switch_past_boundary(obs, prof) -> None:
    """A slice ends 10 µs short of another thread's boundary and the
    switch away costs more, so ``run_until`` re-decides.  Neither
    ``av_pipeline`` nor ``figure5`` hits that branch in a simulated
    second; this pair does every 10 ms."""
    rd = _recording_rd(obs, prof, MachineConfig())
    rd.admit(single_entry_definition("short", 5, 0.1))
    entry = ResourceListEntry(
        units.ms_to_ticks(10), units.ms_to_ticks(8), _stops_short
    )
    rd.admit(TaskDefinition(name="long", resource_list=ResourceList([entry])))
    rd.run_for(units.ms_to_ticks(30))


def _drive_edf_invert(obs, prof) -> None:
    """Anti-EDF injected under the record-mode sanitizer: violations."""
    rd = _recording_rd(obs, prof, seed=3)
    INJECTIONS["edf-invert"](rd)
    rd.admit(single_entry_definition("a", 10, 0.3))
    rd.admit(single_entry_definition("b", 20, 0.3))
    rd.run_for(units.ms_to_ticks(40))
    assert not rd.sanitizer.ok


def _drive_rack(obs, prof) -> None:
    """A lossy rack that retries and migrates (a migration fails too)
    and, observed, ships telemetry.  A bare bus can fill only the
    message bus's slot."""
    session = obs if isinstance(obs, ObsSession) else None
    sim = cluster_rack(
        seed=3, drop_rate=0.4, obs=session, telemetry=session is not None
    )
    if session is None:
        sim.bus.obs = obs
    sim.attach_prof(prof)
    sim.run_until(sim.horizon)
    stats = sim.broker.stats
    assert stats.retries and stats.migrations_completed and stats.migrations_failed


def _drive_serve(obs, prof) -> None:
    """The ``serve_closed`` cycle over a socket.  Serve keeps its own
    session, so only its profiler slot changes."""
    errors = []

    async def main():
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: errors.append(context["message"])
        )
        app = ServeApp(ServeEngine(nodes=2, seed=7, policy="first-fit", prof=prof))
        await app.start()
        reader, writer = await asyncio.open_connection("127.0.0.1", app.server.port)
        try:
            return await _serve_closed_cycle(reader, writer)
        finally:
            writer.close()
            await app.stop()

    assert asyncio.run(main()) == [201, 200, 200, 200]
    assert errors == []


#: Every driver, and the directory an unwatched run of it may not call
#: into.
DRIVERS = {
    _drive_av: SRC / "obs",
    _drive_overload: SRC / "obs",
    _drive_grace: SRC / "obs",
    _drive_switch_past_boundary: SRC / "obs",
    _drive_edf_invert: SRC / "obs",
    _drive_rack: SRC / "obs",
    _drive_serve: SRC / "obs" / "prof",
}

#: The drivers a bare ``ObsBus`` can observe: ``ResourceDistributor(obs=)``
#: and ``MessageBus.obs`` take one.
BUS_DRIVERS = [drive for drive in DRIVERS if drive is not _drive_serve]

#: Site functions an unwatched run cannot enter: the load signal rides
#: on an ObsSession, so an unobserved rack ships no telemetry.
WATCHED_ONLY = [("_on_telemetry", "cluster/broker.py")]


@functools.cache
def _unwatched(drive) -> set[types.CodeType]:
    """The code objects ``drive`` enters run with every slot None."""
    return _entered(lambda: drive(None, None))


def _ids(drivers):
    return [pytest.param(d, id=d.__name__.removeprefix("_drive_")) for d in drivers]


class TestUnobservedRunsPayNothing:
    """The hook contract, checked where hooks run (DESIGN.md §4 "Paths").

    Every call in core/sim/cluster/metrics/serve to ``begin``/``end``
    on a ``prof``-named receiver, to ``emit``/``emit_*`` on an
    ``obs``-named one, or ``.emit(<Name>Event(...))`` is a hook site.
    Short drivers run watched — an ``ObsSession``, a
    ``PhaseProfiler``, a record-mode sanitizer — must execute every
    site; the same drivers run with the ``obs`` and ``prof`` slots
    ``None`` must finish, enter every site's function and call nothing
    under ``repro/obs``; and where a bare ``ObsBus`` fills a slot,
    unsinked, no ``ObsEvent`` may be built (an ``is not None`` guard
    passes a falsy bus)."""

    def test_the_enumeration_finds_every_site(self):
        assert len(_hook_sites()) >= HOOK_SITES

    def test_the_watched_drivers_reach_every_site(self):
        run = set()
        for drive in DRIVERS:
            run |= _lines_run(lambda: drive(ObsSession(), PhaseProfiler()))
        missed = [str(s) for s in _hook_sites() if (s.path, s.line) not in run]
        assert missed == []

    @pytest.mark.parametrize("drive", _ids(DRIVERS))
    def test_an_unwatched_run_calls_no_observer(self, drive):
        forbidden = str(DRIVERS[drive])
        called = {
            code.co_qualname
            for code in _unwatched(drive)
            if code.co_filename.startswith(forbidden)
        }
        assert sorted(called) == []

    def test_the_unwatched_runs_enter_every_sites_function(self):
        entered = {
            (code.co_filename, code.co_firstlineno)
            for drive in DRIVERS
            for code in _unwatched(drive)
        }
        missed = sorted(
            {
                (site.function[0], str(pathlib.Path(site.path).relative_to(SRC)))
                for site in _hook_sites()
                if (site.path, site.function[1]) not in entered
            }
        )
        assert missed == WATCHED_ONLY

    @pytest.mark.parametrize("drive", _ids(BUS_DRIVERS))
    def test_an_unsinked_bus_builds_no_event(self, drive):
        inits = {cls.__init__.__code__ for cls in EVENT_TYPES.values()}
        built = _entered(lambda: drive(ObsBus(), None)) & inits
        assert sorted(c.co_qualname for c in built) == []

    def test_an_unobserved_distributor_arms_no_hook(self):
        rd = ResourceDistributor(machine=MachineConfig(), sim=SimConfig(seed=7))
        slots = [
            rd.kernel.obs, rd.kernel.prof, rd.kernel.sanitizer,
            rd.resource_manager.obs, rd.resource_manager.prof,
            rd.resource_manager.grant_control.prof,
            rd.policy_box.obs, rd.policy_box.prof,
        ]
        assert slots == [None] * len(slots)
        sim = ClusterSimulation(node_count=2, seed=0, policy="first-fit")
        slots = [sim.bus.obs, sim.bus.prof, sim.broker.prof, sim.broker._obs_bus]
        assert slots == [None] * len(slots)
        assert [node.obs for node in sim.nodes.values()] == [None, None]
