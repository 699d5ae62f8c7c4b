"""repro-lint: static analysis for the Resource Distributor codebase.

An AST-based linter (stdlib only) that encodes this repository's
architectural invariants as checkable rules:

* **layering** — imports point down the architecture, never up
  (``repro.core`` never imports ``viz``/``cli``;
  the Scheduler never imports the Policy Box);
* **except-hygiene** — no bare or silent broad ``except`` in the core;
* **tick-units** — ticks are integers of one timebase: no float literal
  in a tick position, and no cross-unit flow through any function;
* **determinism** — simulated ticks only, randomness only through
  ``sim.rng``'s seeded streams: no wall-clock read or unseeded RNG
  reachable through any call chain, per one scope table.

Every run joins the parsed modules into a project index
(:mod:`repro.lint.flow`) — symbol tables, a resolved call graph, a
lightweight abstract interpreter — for the checks no single module can
show.  One rule per contract, and none where a behaviour test already
pins the contract.  The tree gates at zero findings.

Run as ``python -m repro.lint src/`` (or the ``repro-lint`` console
script); see :mod:`repro.lint.cli` for flags and exit codes, and
``docs/lint.md`` for the rule catalog.  The runtime complement to this
static pass is :class:`repro.metrics.sanitizer.InvariantSanitizer`.
"""

from repro.lint.engine import collect_files, module_name, parse_module, run_lint
from repro.lint.flow.index import ModuleResolver
from repro.lint.rules import RULE_CLASSES, all_rules
from repro.lint.rules.base import LintViolation, ModuleInfo, Rule

__all__ = [
    "LintViolation",
    "ModuleInfo",
    "ModuleResolver",
    "Rule",
    "RULE_CLASSES",
    "all_rules",
    "collect_files",
    "module_name",
    "parse_module",
    "run_lint",
]
