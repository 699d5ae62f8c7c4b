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
"""

from __future__ import annotations

import dis
import enum
import functools
import importlib
import inspect
import pkgutil
import types

import pytest

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
