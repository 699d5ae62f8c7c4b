"""Rule registry for repro-lint.

Adding a rule: write a :class:`~repro.lint.rules.base.Rule` subclass
with a unique ``id`` in a module here (or, for a rule that needs the
whole tree, in :mod:`repro.lint.flow`), import it below, and add it to
:data:`RULE_CLASSES`.  The engine, ``--list-rules`` and ``--explain``
all discover it from the registry.
"""

from __future__ import annotations

from repro.lint.rules.base import LintViolation, ModuleInfo, Rule
from repro.lint.rules.hygiene import BareExceptRule, SilentExceptRule
from repro.lint.rules.layering import LayeringRule
from repro.lint.rules.obs import ObsUnguardedEmitRule
from repro.lint.rules.units import FloatTickRule

# The whole-program rules import ``rules.base``, so they come after
# every submodule above.
from repro.lint.flow.determinism import DeterminismRule
from repro.lint.flow.rpc import RpcExceptionSafetyRule
from repro.lint.flow.tick_units import TickUnitsRule

RULE_CLASSES: tuple[type[Rule], ...] = (
    LayeringRule,
    FloatTickRule,
    BareExceptRule,
    SilentExceptRule,
    ObsUnguardedEmitRule,
    TickUnitsRule,
    DeterminismRule,
    RpcExceptionSafetyRule,
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
    "BareExceptRule",
    "DeterminismRule",
    "FloatTickRule",
    "LayeringRule",
    "ObsUnguardedEmitRule",
    "RpcExceptionSafetyRule",
    "SilentExceptRule",
    "TickUnitsRule",
]
