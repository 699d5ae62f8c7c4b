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
"""

from __future__ import annotations

import dis
import enum
import functools
import importlib
import inspect
import pkgutil
import random
import sys
import types

import pytest

from repro import SimConfig, units
from repro.core.distributor import ResourceDistributor
from repro.core.grant_control import GrantController, GrantRequest
from repro.core.policy_box import PolicyBox
from repro.core.resource_list import ResourceList, ResourceListEntry
from repro.scenarios import av_pipeline, figure5
from repro.workloads import grant_follower, single_entry_definition
from tests.core.test_event_driven_dispatch import counted_picks
from tests.properties.test_prop_grant_control import churn_list

PACKAGES = ("repro.core", "repro.sim", "repro.machine", "repro.baselines")
MODULES = ("repro.metrics.sanitizer",)

#: Functions allowed an ``import``, by qualified name.
IMPORT_EXEMPT = {
    # ``repro.metrics`` pulls in ``metrics.report``, which sits above
    # core in the layering; runs once, when a sanitizer is attached.
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
    counted.  The count is deterministic."""
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


# -- a poll is not a scheduling decision ----------------------------------------


class TestPollsDoNotRepick:
    """A greedy Sporadic Server's poll — ``Compute(POLL_COST)`` then
    ``DonePeriod(overtime=True)`` — changes no queue, so the kernel keeps
    the slice going rather than re-running ``pick`` and ``timer_for``
    (DESIGN.md §4 "A slice costs its scheduling events").  The audit
    still sees every poll."""

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
