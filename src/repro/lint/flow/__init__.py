"""Whole-program flow analysis for repro-lint.

The classic rule tier (:mod:`repro.lint.rules`) inspects one module at
a time; this tier parses the whole target tree into a
:class:`~repro.lint.flow.index.ProjectIndex` — per-module symbol
tables, an import-resolved call graph, and a lightweight abstract
interpreter over function bodies — and runs *flow rules* that reason
across function and module boundaries:

* **tick-units** — dimensional analysis over the 27 MHz tick timebase:
  cross-unit arithmetic and ms-into-ticks parameter passing;
* **determinism-reach** — wallclock/unseeded-RNG sinks *reachable*
  from the simulation core through helpers the direct rules cannot
  see, with an interprocedural path witness;
* **shared-state-race** — module-level mutable state mutated from more
  than one epoch-lockstep entry point without crossing the
  MessageBus/RPC seam;
* **rpc-exception-safety** — RPC transmissions whose failure paths can
  leak a registered idempotency token.

Enable with ``python -m repro.lint src/ --flow`` (see
:mod:`repro.lint.cli`).
"""

from __future__ import annotations

from repro.lint.flow.base import FlowRule
from repro.lint.flow.callgraph import CallGraph
from repro.lint.flow.index import ModuleResolver, ProjectIndex
from repro.lint.flow.race import SharedStateRaceRule
from repro.lint.flow.reach import DeterminismReachRule
from repro.lint.flow.rpc import RpcExceptionSafetyRule
from repro.lint.flow.tick_units import TickUnitsRule

FLOW_RULE_CLASSES: tuple[type[FlowRule], ...] = (
    TickUnitsRule,
    DeterminismReachRule,
    SharedStateRaceRule,
    RpcExceptionSafetyRule,
)


def all_flow_rules() -> list[FlowRule]:
    """Fresh instances of every registered flow rule, in registry order."""
    return [cls() for cls in FLOW_RULE_CLASSES]


__all__ = [
    "CallGraph",
    "DeterminismReachRule",
    "FLOW_RULE_CLASSES",
    "FlowRule",
    "ModuleResolver",
    "ProjectIndex",
    "RpcExceptionSafetyRule",
    "SharedStateRaceRule",
    "TickUnitsRule",
    "all_flow_rules",
]
