"""The frozen benchmark's tracer finds every name it wraps.

``benchmarks/e2e/trace.py`` times each layer from outside: ``install``
replaces the methods its ``TARGETS`` table names, read through the
owning class's ``__dict__``, plus ``PipelineObsSession.registry`` and
``ArenaBus.materialize``.  A method renamed, moved to a base class or
deleted in ``src`` breaks the traced benchmark run with a ``KeyError``;
here it fails tier-1 first.  The tracer is loaded by path and never
installed.  DESIGN.md §4 "What the frozen benchmark surface pins".
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACE = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "trace.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("e2e_trace", TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: (module, class, attribute) for every ``TARGETS`` entry.
TARGET_NAMES = [
    (module, owner, attr)
    for module, owner, _layer, _coarse, attrs in _load_tracer().TARGETS
    for attr in attrs
]

#: What ``install`` wraps besides ``TARGETS``.
EXTRA_NAMES = [
    ("repro.obs.pipeline.session", "PipelineObsSession", "registry"),
    ("repro.obs.pipeline.arena", "ArenaBus", "materialize"),
]


def _owner(module: str, name: str) -> type:
    return getattr(importlib.import_module(module), name)


@pytest.mark.parametrize(
    "module, owner, attr",
    TARGET_NAMES + EXTRA_NAMES,
    ids=[f"{owner}.{attr}" for _, owner, attr in TARGET_NAMES + EXTRA_NAMES],
)
def test_the_tracer_finds_its_name_on_the_class(module, owner, attr):
    assert attr in vars(_owner(module, owner)), f"{owner}.{attr}"


def test_the_registry_is_still_a_property():
    """``install`` rebuilds it from ``fget`` and ``fset``."""
    registry = vars(_owner(*EXTRA_NAMES[0][:2]))["registry"]
    assert isinstance(registry, property)


def test_the_table_was_read():
    names = {(owner, attr) for _, owner, attr in TARGET_NAMES}
    assert {("Kernel", "note_periodic_exit"), ("Kernel", "reap_exited")} <= names
    assert ("RDScheduler", "pick") in names
