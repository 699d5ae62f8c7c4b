"""Rule registry for repro-lint.

One rule per contract, and none where a behaviour test pins it.  A new
contract gets a :class:`~repro.lint.rules.base.Rule` subclass with a
unique ``id`` here (or in :mod:`repro.lint.flow` if it needs the whole
tree), imported below and added to :data:`RULE_CLASSES`, which the
engine, ``--list-rules`` and ``--explain`` all read.
"""

from __future__ import annotations

from repro.lint.rules.base import LintViolation, ModuleInfo, Rule
from repro.lint.rules.hygiene import ExceptHygieneRule
from repro.lint.rules.layering import LayeringRule

# The whole-program rules import ``rules.base``, so they come after
# every submodule above.
from repro.lint.flow.determinism import DeterminismRule
from repro.lint.flow.tick_units import TickUnitsRule

RULE_CLASSES: tuple[type[Rule], ...] = (
    LayeringRule,
    ExceptHygieneRule,
    TickUnitsRule,
    DeterminismRule,
)


def all_rules() -> list[Rule]:
    """Fresh instances of every registered rule, in registry order."""
    return [cls() for cls in RULE_CLASSES]


__all__ = [
    "LintViolation",
    "ModuleInfo",
    "Rule",
    "RULE_CLASSES",
    "all_rules",
    "DeterminismRule",
    "ExceptHygieneRule",
    "LayeringRule",
    "TickUnitsRule",
]
