"""Layering rule: imports must point down the architecture, never up.

The Resource Distributor's components talk through narrow interfaces
(paper Figure 2): the Scheduler communicates only with the Resource
Manager — never with the Policy Box, users, or applications — and the
core mechanism layer must not reach up into presentation (``viz``,
``cli``).  Violating an edge here silently couples mechanism to policy or
simulation to presentation, which is exactly what the paper's design
forbids.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.rules.base import LintViolation, ModuleInfo, Rule, relative_base


def _in_prefix(name: str, prefix: str) -> bool:
    return name == prefix or name.startswith(prefix + ".")


class LayeringRule(Rule):
    """Forbid imports that cross the architecture's layering.

    The layering table maps a source package/module prefix to the
    prefixes it must never import:

    * ``repro.core`` -> ``repro.viz``, ``repro.cli``, ``repro.cluster``
      (presentation and cluster coordination sit above the mechanism
      layer: a distributor never learns it is being clustered), plus
      ``repro.obs.prof`` (hook sites hold a duck-typed ``prof`` slot;
      the profiler is injected from above, never imported from below
      — same for ``repro.sim``) and ``repro.obs.pipeline`` (the
      arena bus is injected through the ``ObsBus`` interface; core and
      sim must never know how their events are stored — only
      ``repro.cluster`` and ``repro.serve`` may build
      the shipping tree);
    * ``repro.core.scheduler`` -> ``repro.core.policy_box`` (the
      mechanism/policy separation: the Scheduler talks only to the
      Resource Manager);
    * ``repro.sim`` -> ``repro.core``, ``repro.viz``, ``repro.cli``,
      ``repro.metrics``, ``repro.cluster`` (the simulation substrate is
      the lowest layer; the message bus carries envelopes for the
      cluster broker without knowing it exists);
    * ``repro.obs`` -> ``repro.core``, ``repro.sim``, ``repro.cluster``,
      ``repro.viz``, ``repro.cli``, ``repro.metrics`` (telemetry sits
      at the bottom beside ``repro.sim``: core, sim, and cluster may
      emit into it, but it may depend on nothing above ``repro.units`` /
      ``repro.errors`` — the mirror of core never importing cluster);
    * ``repro.units`` -> any ``repro.`` module (units is ground).

    ``repro.cluster`` itself may import ``repro.core``, ``repro.sim``,
    ``repro.obs``, and ``repro.metrics`` — it is a coordinator *above*
    core, not a peer of it.

    ``repro.serve`` is the serving boundary at the very top: it may
    import ``repro.cluster``, ``repro.obs``, and ``repro.core``, but
    NOTHING may import it — it is the one layer that legitimately
    lives in wall-clock land (asyncio timeouts, request latencies),
    and its exemption from the determinism rules must not leak into
    the simulated layers through an upward import.  Every simulated
    row therefore lists ``repro.serve`` as forbidden, including
    ``repro.cluster`` and ``repro.metrics``, which have no other
    upward constraints.

    ``repro.fuzz`` is a test harness above everything it exercises
    (core, sim, cluster, metrics): the simulated layers must never
    import their own fuzzer, or a generator tweak could change
    kernel behavior.  It may import anything below it, but not
    ``repro.serve`` — fuzz campaigns are offline.
    """

    id = "layering"
    rationale = (
        "policy/mechanism separation and layer ordering (core below "
        "viz/cli; scheduler never imports policy_box)"
    )

    #: (source prefix, forbidden import prefixes) — first match wins for
    #: the most specific source prefix, but all matching rows apply.
    table: tuple[tuple[str, tuple[str, ...]], ...] = (
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

    def check(self, module: ModuleInfo) -> Iterator[LintViolation]:
        forbidden: list[tuple[str, str]] = []
        for source_prefix, targets in self.table:
            if module.in_package(source_prefix):
                forbidden.extend((source_prefix, t) for t in targets)
        if not forbidden:
            return
        seen: set[tuple[int, str]] = set()
        for node, imported in _imports(module):
            for source_prefix, target in forbidden:
                if _in_prefix(imported, target) and not _in_prefix(
                    module.module, target
                ):
                    key = (getattr(node, "lineno", 0), target)
                    if key in seen:
                        break
                    seen.add(key)
                    yield self.violation(
                        module,
                        node,
                        f"{source_prefix} must not import {imported} "
                        f"(layering: {target} sits outside "
                        f"{source_prefix}'s reach)",
                    )
                    break


def _imports(module: ModuleInfo) -> Iterator[tuple[ast.AST, str]]:
    """Every (node, absolute dotted module) imported anywhere in the
    file, including imports nested inside functions.

    ``from pkg import name`` yields both ``pkg`` and ``pkg.name`` —
    ``name`` may be a submodule (``from repro.core import kernel``), and
    prefix matching stays correct either way.
    """
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = relative_base(module, node.level, node.module)
            if base is None:
                continue
            yield node, base
            for alias in node.names:
                if alias.name != "*":
                    yield node, f"{base}.{alias.name}"
