"""Whole-program analysis for repro-lint.

Most rules (:mod:`repro.lint.rules`) inspect one module at a time; the
rule in this package overrides ``Rule.check_project`` and reads the
:class:`~repro.lint.flow.index.ProjectIndex` the engine builds from
every parsed module of a run — per-module symbol tables, import-resolved
call targets, and a lightweight abstract interpreter over function
bodies — to reason across function and module boundaries:

* **tick-units** — dimensional analysis over the 27 MHz tick timebase:
  cross-unit arithmetic and ms-into-ticks parameter passing (its
  per-module ``check`` adds the float-literal half).

It is registered in :data:`repro.lint.rules.RULE_CLASSES` beside the
per-module rule and runs on every invocation.
"""

from __future__ import annotations

from repro.lint.flow.index import ModuleResolver, ProjectIndex

__all__ = ["ModuleResolver", "ProjectIndex"]
