"""The repro-lint engine: collect files, parse, run rules, sort.

The engine owns everything rules should not: filesystem walking, module
name derivation and parse errors.  Rules receive parsed
:class:`ModuleInfo` objects, or the :class:`ProjectIndex` built from all
of them, and yield violations.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Sequence

from repro.lint.rules import all_rules
from repro.lint.rules.base import LintViolation, ModuleInfo

# After the registry: the index imports ``rules.base``, whose package
# ``__init__`` imports the rules that import the index.
from repro.lint.flow.index import ProjectIndex


def collect_files(targets: Sequence[Path]) -> list[Path]:
    """Every ``.py`` file under the targets, sorted, deduplicated."""
    seen: dict[Path, None] = {}
    for target in targets:
        if target.is_dir():
            for path in sorted(target.rglob("*.py")):
                seen.setdefault(path, None)
        elif target.suffix == ".py":
            seen.setdefault(target, None)
    return list(seen)


def module_name(path: Path) -> str:
    """Dotted module name derived from the ``__init__.py`` chain.

    Walks up from the file while each parent directory holds an
    ``__init__.py``, so ``src/repro/core/kernel.py`` maps to
    ``repro.core.kernel`` regardless of the scan root.  A loose script
    outside any package keeps its bare stem.
    """
    parts: list[str] = [] if path.name == "__init__.py" else [path.stem]
    directory = path.parent
    while (directory / "__init__.py").is_file():
        parts.append(directory.name)
        parent = directory.parent
        if parent == directory:
            break
        directory = parent
    return ".".join(reversed(parts))


def parse_module(path: Path) -> ModuleInfo | LintViolation:
    """Parse one file; a syntax error, or bytes that do not decode as the
    file's source encoding, becomes a ``parse-error`` violation."""
    try:
        # From bytes, so the parser honours a coding cookie and reports
        # an undecodable byte as a SyntaxError at its line.
        tree = ast.parse(path.read_bytes(), filename=str(path))
    except SyntaxError as exc:
        return LintViolation(
            path=str(path),
            line=exc.lineno or 1,
            col=(exc.offset or 1) - 1,
            rule_id="parse-error",
            message=f"cannot parse: {exc.msg}",
        )
    return ModuleInfo(path=path, module=module_name(path), tree=tree)


def run_lint(targets: Sequence[Path]) -> list[LintViolation]:
    """Lint the targets and return every violation.

    Every parsed module joins one :class:`ProjectIndex`; each rule then
    checks the index (``check_project``) and every module in its scope
    (``check``).

    Violations come back sorted by path, line, col, then rule id —
    byte-stable output for both humans and CI diffs.
    """
    violations: list[LintViolation] = []
    modules: list[ModuleInfo] = []
    for path in collect_files(targets):
        parsed = parse_module(path)
        if isinstance(parsed, LintViolation):
            violations.append(parsed)
        else:
            modules.append(parsed)
    index = ProjectIndex(modules)
    for rule in all_rules():
        violations.extend(rule.check_project(index))
        for module in modules:
            if rule.applies_to(module):
                violations.extend(rule.check(module))
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule_id, v.message))
    return violations
