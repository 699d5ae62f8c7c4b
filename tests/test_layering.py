"""Imports point down the architecture, never up.

The Resource Distributor's components talk through narrow interfaces
(paper Figure 2): the Scheduler communicates only with the Resource
Manager — never with the Policy Box, users, or applications — and the
core mechanism layer must not reach up into presentation (``viz``,
``cli``).  Violating an edge here silently couples mechanism to policy
or simulation to presentation, which is exactly what the paper's design
forbids.

The check reads what Python runs: every ``IMPORT_NAME`` in each
module's compiled code, functions and class bodies included, with
relative imports resolved against the module's package.  :data:`LAYERS`
maps a source package/module prefix to the prefixes it must never
import:

* ``repro.core`` -> ``repro.viz``, ``repro.cli``, ``repro.cluster``
  (presentation and cluster coordination sit above the mechanism
  layer: a distributor never learns it is being clustered), plus
  ``repro.obs.prof`` (hook sites hold a duck-typed ``prof`` slot; the
  profiler is injected from above, never imported from below — same
  for ``repro.sim``) and ``repro.obs.pipeline`` (the arena bus is
  injected through the ``ObsBus`` interface; core and sim must never
  know how their events are stored — only ``repro.cluster`` and
  ``repro.serve`` may build the shipping tree);
* ``repro.core.scheduler`` -> ``repro.core.policy_box`` (the
  mechanism/policy separation: the Scheduler talks only to the Resource
  Manager);
* ``repro.sim`` -> ``repro.core``, ``repro.viz``, ``repro.cli``,
  ``repro.metrics``, ``repro.cluster`` (the simulation substrate is the
  lowest layer; the message bus carries envelopes for the cluster
  broker without knowing it exists);
* ``repro.obs`` -> ``repro.core``, ``repro.sim``, ``repro.cluster``,
  ``repro.viz``, ``repro.cli``, ``repro.metrics`` (telemetry sits at the
  bottom beside ``repro.sim``: core, sim, and cluster may emit into it,
  but it may depend on nothing above ``repro.units`` /
  ``repro.errors`` — the mirror of core never importing cluster);
* ``repro.units`` -> any ``repro.`` module (units is ground).

``repro.cluster`` itself may import ``repro.core``, ``repro.sim``,
``repro.obs``, and ``repro.metrics`` — it is a coordinator *above* core,
not a peer of it.

``repro.serve`` is the serving boundary at the very top: it may import
``repro.cluster``, ``repro.obs``, and ``repro.core``, but NOTHING may
import it — it is the one layer that legitimately lives in wall-clock
land (asyncio timeouts, request latencies), and its clock reads must
not leak into the simulated layers through an upward import.  Every
simulated row therefore lists ``repro.serve`` as forbidden, including
``repro.cluster`` and ``repro.metrics``, which have no other upward
constraints.

``repro.fuzz`` is a test harness above everything it exercises (core,
sim, cluster, metrics): the simulated layers must never import their
own fuzzer, or a generator tweak could change kernel behavior.  It may
import anything below it, but not ``repro.serve`` — fuzz campaigns are
offline.
"""

from __future__ import annotations

import dis
import functools
import types
from pathlib import Path
from typing import NamedTuple

from repro.lint import module_name
from repro.lint.rules.base import relative_base

SRC = Path(__file__).parent.parent / "src"

#: (source prefix, forbidden import prefixes) — every row whose source
#: prefix holds the module applies.
LAYERS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("repro.core.scheduler", ("repro.core.policy_box",)),
    (
        "repro.core",
        (
            "repro.viz",
            "repro.cli",
            "repro.cluster",
            "repro.serve",
            "repro.fuzz",
            "repro.obs.prof",
            "repro.obs.pipeline",
        ),
    ),
    (
        "repro.sim",
        (
            "repro.core",
            "repro.viz",
            "repro.cli",
            "repro.metrics",
            "repro.cluster",
            "repro.serve",
            "repro.fuzz",
            "repro.obs.prof",
            "repro.obs.pipeline",
        ),
    ),
    (
        "repro.obs",
        (
            "repro.core",
            "repro.sim",
            "repro.cluster",
            "repro.viz",
            "repro.cli",
            "repro.metrics",
            "repro.tasks",
            "repro.workloads",
            "repro.baselines",
            "repro.serve",
            "repro.fuzz",
        ),
    ),
    (
        "repro.units",
        (
            "repro.core",
            "repro.sim",
            "repro.metrics",
            "repro.viz",
            "repro.cli",
            "repro.tasks",
            "repro.config",
            "repro.workloads",
            "repro.baselines",
            "repro.cluster",
            "repro.serve",
            "repro.fuzz",
        ),
    ),
    ("repro.cluster", ("repro.serve", "repro.fuzz")),
    ("repro.metrics", ("repro.serve", "repro.fuzz")),
    ("repro.fuzz", ("repro.serve",)),
)


def _within(name: str, prefix: str) -> bool:
    return name == prefix or name.startswith(prefix + ".")


class Break(NamedTuple):
    """One import that crosses a layer."""

    path: Path
    line: int
    module: str
    imported: str
    #: The forbidden prefix ``imported`` falls under.
    target: str


@functools.cache
def imports(path: Path) -> list[tuple[int, str]]:
    """Every ``(line, absolute module)`` the compiled file imports.

    ``from pkg import name`` gives both ``pkg`` and ``pkg.name`` —
    ``name`` may be a submodule (``from repro.core import kernel``), and
    prefix matching stays correct either way.
    """
    module, is_package = module_name(path), path.name == "__init__.py"
    found = []
    todo = [compile(path.read_bytes(), str(path), "exec")]
    while todo:
        code = todo.pop()
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
        ops = list(dis.get_instructions(code))
        for at, op in enumerate(ops):
            if op.opname != "IMPORT_NAME":
                continue
            level, fromlist = ops[at - 2], ops[at - 1]
            assert level.opname == fromlist.opname == "LOAD_CONST", (path, op)
            base = relative_base(module, is_package, level.argval, op.argval or None)
            if base is None:
                continue
            found.append((op.positions.lineno, base))
            found.extend(
                (op.positions.lineno, f"{base}.{name}")
                for name in fromlist.argval or ()
                if name != "*"
            )
    return found


def layer_breaks(paths: list[Path]) -> list[Break]:
    """Every import crossing :data:`LAYERS` in ``paths``, one per line
    and forbidden prefix."""
    found = []
    for path in paths:
        module = module_name(path)
        rows = [target for source, targets in LAYERS if _within(module, source) for target in targets]
        seen = set()
        for line, imported in imports(path):
            for target in rows:
                if _within(imported, target) and not _within(module, target):
                    if (line, target) not in seen:
                        seen.add((line, target))
                        found.append(Break(path, line, module, imported, target))
                    break
    return found


MODULES = sorted((SRC / "repro").rglob("*.py"))


def test_no_import_crosses_a_layer():
    assert layer_breaks(MODULES) == []


def test_the_whole_graph_is_read():
    """Function-level and relative imports are edges too."""
    edges = {(module_name(path), imported) for path in MODULES for _, imported in imports(path)}
    assert len(edges) > 1500
    # ``cmd_cluster`` imports the cluster package inside the function.
    assert ("repro.cli", "repro.cluster") in edges
    assert ("repro.obs", "repro.obs.session") in edges


def test_a_nested_and_a_relative_import_are_caught(tmp_path):
    files = {
        "repro/__init__.py": "",
        "repro/units.py": "import repro.config\n",
        "repro/obs/__init__.py": "",
        "repro/obs/session.py": "def add():\n    from repro.core import kernel\n    return kernel\n",
        "repro/cluster/__init__.py": "from . import broker\n",
        "repro/cluster/broker.py": "class B:\n    def f(self):\n        from ..serve import app\n",
        "repro/cluster/deep.py": "from .... import nothing\n",
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    paths = sorted((tmp_path / "repro").rglob("*.py"))
    found = [(b.module, b.line, b.imported, b.target) for b in layer_breaks(paths)]
    assert found == [
        ("repro.cluster.broker", 3, "repro.serve", "repro.serve"),
        ("repro.obs.session", 2, "repro.core", "repro.core"),
        ("repro.units", 1, "repro.config", "repro.config"),
    ]
