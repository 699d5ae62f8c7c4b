"""Flow rule: ticks are integers of one timebase (``tick-units``)."""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.flow.dims import (
    CONVERTERS,
    CYCLES,
    TICKS,
    DimInterpreter,
    SummaryTable,
    dim_of_name,
)
from repro.lint.flow.index import ProjectIndex
from repro.lint.rules.base import LintViolation, ModuleInfo, Rule, dotted_name

#: Converters whose argument is an integer count (ticks or cycles).
_INTEGER_CONSUMERS = frozenset(
    name for name, (arg, _) in CONVERTERS.items() if arg in (TICKS, CYCLES)
)


def _is_float_literal(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    # A negated float literal (``-1.5``) parses as UnaryOp(USub, Constant).
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _is_float_literal(node.operand)
    return False


class TickUnitsRule(Rule):
    """Simulated time is integer 27 MHz ticks, and every other unit
    reaches it only through the ``repro.units`` converters.

    The tick timebase (``repro.units``) only protects the paper's
    guarantees if every layer agrees on it.  One table of converters
    (``dims.CONVERTERS``) and one naming convention (``dims.dim_of_name``:
    ``*_ticks``, ``*_ms``, ``now``, ``period``, ...) feed two checks.

    **Literals** (per module, every scanned file): a float literal
    passed positionally to a converter that takes integer ticks or
    cycles (``ticks_to_ms(1.5)``, ``core_cycles_to_ticks(2.0)``), or
    bound to a keyword whose name makes it ticks (``period=1.5``,
    ``horizon_ticks=0.5e6``).  A float tick count truncates silently
    somewhere downstream.

    **Dimensions** (whole program): a lightweight abstract interpreter
    over every function body catches the *semantic* mix-ups a literal
    check cannot see:

    * cross-unit arithmetic and comparisons (``deadline_ticks -
      duration_ms``);
    * a ms/us/sec quantity passed into a ticks parameter of another
      project function (interprocedural, with a caller -> callee
      witness) — and vice versa;
    * converting an already-converted quantity
      (``ms_to_ticks(period)`` where ``period`` is already ticks);
    * multiplying/dividing by a ``TICKS_PER_*`` factor in the wrong
      direction.

    Dimensions propagate through assignments and return values.
    Unknown dimensions stay silent.
    """

    id = "tick-units"
    rationale = (
        "every duration is integer 27 MHz ticks or passes through "
        "repro.units converters; float literals in tick positions, "
        "cross-unit arithmetic and ms-into-ticks parameter passing break "
        "the timebase silently"
    )

    def check(self, module: ModuleInfo) -> Iterator[LintViolation]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            short = (dotted_name(node.func) or "").rsplit(".", 1)[-1]
            if short in _INTEGER_CONSUMERS:
                for arg in node.args:
                    if _is_float_literal(arg):
                        yield self.violation(
                            module,
                            arg,
                            f"float literal passed to {short}(), which "
                            f"takes integer ticks/cycles; convert with "
                            f"ms_to_ticks()/us_to_ticks() or use an int",
                        )
            for kw in node.keywords:
                if (
                    kw.arg is not None
                    and dim_of_name(kw.arg) == TICKS
                    and _is_float_literal(kw.value)
                ):
                    yield self.violation(
                        module,
                        kw.value,
                        f"float literal bound to tick-count keyword "
                        f"{kw.arg}=; ticks are integers — convert with "
                        f"ms_to_ticks()/us_to_ticks()",
                    )

    def check_project(self, index: ProjectIndex) -> Iterator[LintViolation]:
        summaries = SummaryTable(index)
        for fn in index.functions.values():
            interp = DimInterpreter(fn, index, summaries)
            for problem in interp.run():
                yield self.violation(
                    index.tables[fn.module].info,
                    problem.node,
                    problem.message,
                    problem.witness,
                )
