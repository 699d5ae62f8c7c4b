"""Error hygiene: no swallowed failures in the mechanism layer."""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.rules.base import LintViolation, ModuleInfo, Rule, dotted_name

#: Catch-all exception types a handler must not silently discard.
_BROAD_TYPES = frozenset({"Exception", "BaseException"})


def _handler_types(handler: ast.ExceptHandler) -> list[str]:
    """Dotted names of the exception types a typed handler catches."""
    t = handler.type
    nodes = t.elts if isinstance(t, ast.Tuple) else [t]
    return [dotted_name(n) or "<?>" for n in nodes]


def _body_is_silent(body: list[ast.stmt]) -> bool:
    """True when the handler body does nothing at all (``pass`` / ``...``)."""
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # a bare ``...`` or a string used as a comment
        return False
    return True


class ExceptHygieneRule(Rule):
    """Forbid ``except:`` and silent broad catches in the core.

    The Resource Distributor's correctness argument rests on errors
    surfacing, and the typed hierarchy in ``repro.errors`` exists so
    callers can catch narrowly.  A bare ``except:`` catches ``KeyboardInterrupt`` and ``SystemExit``
    along with every real error, hiding scheduler bugs behind whatever
    recovery the handler attempts.  Catching the broad
    ``Exception``/``BaseException`` and doing nothing (``pass`` or
    ``...``) turns any broken invariant — a failed grant recomputation,
    a corrupted ready queue — into silent mis-scheduling.  Catch a
    concrete type from ``repro.errors`` and handle it, or let the error
    propagate.
    """

    id = "except-hygiene"
    rationale = (
        "a bare except: or a silent except Exception: in the mechanism "
        "layer hides broken invariants; catch a concrete repro.errors "
        "type or propagate"
    )
    scope_prefixes = ("repro.core", "repro.sim")

    def check(self, module: ModuleInfo) -> Iterator[LintViolation]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.violation(
                    module,
                    node,
                    "bare except: catches everything including "
                    "KeyboardInterrupt; name a concrete exception type",
                )
                continue
            broad = [t for t in _handler_types(node) if t in _BROAD_TYPES]
            if broad and _body_is_silent(node.body):
                yield self.violation(
                    module,
                    node,
                    f"except {broad[0]} with an empty body swallows every "
                    f"error; handle a narrow repro.errors type or let it "
                    f"propagate",
                )
