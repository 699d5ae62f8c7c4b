"""Flow rule: tick-unit dimensional analysis (``tick-units``)."""

from __future__ import annotations

from typing import Iterator

from repro.lint.flow.dims import DimInterpreter, SummaryTable
from repro.lint.flow.index import ProjectIndex
from repro.lint.rules.base import LintViolation, Rule


class TickUnitsRule(Rule):
    """Infer Ticks/Ms/Us/Sec dimensions and flag cross-unit flows.

    The 27 MHz tick timebase (``repro.units``) only protects the
    paper's guarantees if every layer agrees on it.  The per-module
    ``float-ticks`` rule catches literal misuse; this rule runs a
    lightweight abstract interpreter over every function body and
    catches the *semantic* mix-ups a literal check cannot see:

    * cross-unit arithmetic and comparisons (``deadline_ticks -
      duration_ms``);
    * a ms/us/sec quantity passed into a ticks parameter of another
      project function (interprocedural, with a caller -> callee
      witness) — and vice versa;
    * converting an already-converted quantity
      (``ms_to_ticks(period)`` where ``period`` is already ticks);
    * multiplying/dividing by a ``TICKS_PER_*`` factor in the wrong
      direction.

    Dimensions come from the ``repro.units`` vocabulary, parameter and
    variable names (``*_ticks``, ``*_ms``, ``now``, ``period``, ...),
    and propagation through assignments and return values.  Unknown
    dimensions stay silent.
    """

    id = "tick-units"
    rationale = (
        "every duration is 27 MHz ticks or passes through repro.units "
        "converters; cross-unit arithmetic and ms-into-ticks parameter "
        "passing break the timebase silently (dimensional analysis)"
    )

    def check_project(self, index: ProjectIndex) -> Iterator[LintViolation]:
        summaries = SummaryTable(index)
        for fn in index.iter_functions():
            interp = DimInterpreter(fn, index, summaries)
            for problem in interp.run():
                yield self.violation(
                    index.tables[fn.module].info,
                    problem.node,
                    problem.message,
                    problem.witness,
                )
