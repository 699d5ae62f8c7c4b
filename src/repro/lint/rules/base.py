"""Rule plumbing shared by every repro-lint rule.

A rule is a class with a stable ``id`` (the name used in output and by
``--explain``), a docstring explaining the invariant it enforces, and
one of two methods: ``check`` yields violations for one
parsed module, ``check_project`` for the whole scanned tree (a
:class:`~repro.lint.flow.index.ProjectIndex`: symbol tables, resolved
call targets), and then carries the interprocedural ``witness`` path
that proves each finding.  Rules never do I/O; the engine hands them fully
parsed :class:`ModuleInfo` objects.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover
    from repro.lint.flow.index import ProjectIndex


@dataclass(frozen=True)
class ModuleInfo:
    """One source file, parsed and located in the package hierarchy."""

    path: Path
    #: Dotted module name (``repro.core.scheduler``), derived from the
    #: ``__init__.py`` chain above the file; bare stem for loose files.
    module: str
    tree: ast.Module

    def in_package(self, prefix: str) -> bool:
        """Is this module ``prefix`` itself or inside package ``prefix``?"""
        return self.module == prefix or self.module.startswith(prefix + ".")


@dataclass(frozen=True)
class LintViolation:
    """One broken rule at one source location.

    Whole-program violations carry a ``witness``: the interprocedural call
    path (``a.relay -> a.set_deadline(deadline: ticks)``) that proves the
    finding, shown in both output formats.
    """

    path: str
    line: int
    col: int
    rule_id: str
    message: str
    witness: tuple[str, ...] = ()

    def format(self) -> str:
        text = f"{self.path}:{self.line} {self.rule_id} {self.message}"
        if self.witness:
            text += f" [{' -> '.join(self.witness)}]"
        return text

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "message": self.message,
            "witness": list(self.witness),
        }


class Rule:
    """Base class for repro-lint rules."""

    #: Stable identifier used in output and by ``--explain``.
    id: str = ""
    #: One-line rationale shown by ``--list-rules`` / ``--explain``.
    rationale: str = ""
    #: Restrict ``check`` to modules under these dotted prefixes
    #: (``None`` = every scanned module).
    scope_prefixes: tuple[str, ...] | None = None

    def applies_to(self, module: ModuleInfo) -> bool:
        if self.scope_prefixes is None:
            return True
        return any(module.in_package(prefix) for prefix in self.scope_prefixes)

    def check(self, module: ModuleInfo) -> Iterator[LintViolation]:
        """Violations in one module (override this or ``check_project``)."""
        return iter(())

    def check_project(self, index: "ProjectIndex") -> Iterator[LintViolation]:
        """Violations only the whole scanned tree can show."""
        return iter(())

    def violation(
        self,
        module: ModuleInfo,
        node: ast.AST,
        message: str,
        witness: tuple[str, ...] = (),
    ) -> LintViolation:
        return LintViolation(
            path=str(module.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule_id=self.id,
            message=message,
            witness=witness,
        )


def dotted_name(node: ast.AST) -> str | None:
    """Render an ``ast.Attribute``/``ast.Name`` chain as ``a.b.c``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def relative_base(
    module: str, is_package: bool, level: int, target: str | None
) -> str | None:
    """Absolute base of ``from <level dots><target> import ...`` in ``module``.

    One dot is the module's own package: the module itself when it is a
    package ``__init__`` (``is_package``), its parent otherwise.  ``None``
    when the dots climb past the top of the tree.
    """
    if level == 0:
        return target
    parts = module.split(".")
    if not is_package:
        parts.pop()
    if level - 1 > len(parts):
        return None
    parts = parts[: len(parts) - level + 1]
    if target:
        parts.append(target)
    return ".".join(parts) or None
