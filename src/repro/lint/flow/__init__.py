"""Whole-program analysis for repro-lint.

Most rules (:mod:`repro.lint.rules`) inspect one module at a time; the
rules in this package override ``Rule.check_project`` and read
the :class:`~repro.lint.flow.index.ProjectIndex` the engine builds from
every parsed module of a run — per-module symbol tables, an
import-resolved call graph, and a lightweight abstract interpreter over
function bodies — to reason across function and module boundaries:

* **tick-units** — dimensional analysis over the 27 MHz tick timebase:
  cross-unit arithmetic and ms-into-ticks parameter passing (its
  per-module ``check`` adds the float-literal half);
* **determinism** — wall-clock reads and global or unseeded RNG draws
  reachable from the packages its scope table names, at any call
  depth, with an interprocedural path witness.

They are registered in :data:`repro.lint.rules.RULE_CLASSES` beside the
per-module rules and run on every invocation.
"""

from __future__ import annotations

from repro.lint.flow.callgraph import CallGraph
from repro.lint.flow.index import ModuleResolver, ProjectIndex

__all__ = ["CallGraph", "ModuleResolver", "ProjectIndex"]
