"""The repro-lint engine: collect files, parse, run rules, filter.

The engine owns everything rules should not: filesystem walking, module
name derivation, parse errors, suppression comments, and config-driven
enable/disable.  Rules receive parsed :class:`ModuleInfo` objects, or
the :class:`ProjectIndex` built from all of them, and yield violations.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterator, Sequence

from repro.lint.config import LintConfig
from repro.lint.rules import RULE_CLASSES, all_rules
from repro.lint.rules.base import LintViolation, ModuleInfo

# After the registry: the index imports ``rules.base``, whose package
# ``__init__`` imports the rules that import the index.
from repro.lint.flow.index import ProjectIndex

#: ``# repro-lint: disable=rule-a,rule-b`` or ``disable=all`` on the
#: violating line suppresses matching rules for that line.
_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\- ]+)")


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
    """Parse one file; a syntax error becomes a ``parse-error`` violation."""
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return LintViolation(
            path=str(path),
            line=exc.lineno or 1,
            col=(exc.offset or 1) - 1,
            rule_id="parse-error",
            message=f"cannot parse: {exc.msg}",
        )
    return ModuleInfo(
        path=path,
        module=module_name(path),
        tree=tree,
        lines=tuple(source.splitlines()),
    )


def _suppressed(module: ModuleInfo, violation: LintViolation) -> bool:
    for line in _suppression_lines(module, violation.line):
        if not 1 <= line <= len(module.lines):
            continue
        match = _SUPPRESS_RE.search(module.lines[line - 1])
        if not match:
            continue
        ids = {part.strip() for part in match.group(1).split(",")}
        if "all" in ids or violation.rule_id in ids:
            return True
    return False


def _suppression_lines(module: ModuleInfo, line: int) -> set[int]:
    """Lines whose ``# repro-lint: disable=`` comment covers ``line``.

    A suppression is honoured anywhere on the violation's *statement*:
    a call spanning several lines can carry the marker on any of them,
    and a violation on a ``def``/``class`` header is suppressible from
    its decorator lines.  For compound statements only the header (up
    to the first body statement) counts — a marker inside a function
    body never silences a violation on its signature.
    """
    candidates = {line}
    stmt = _smallest_enclosing_stmt(module.tree, line)
    if stmt is None:
        return candidates
    end = getattr(stmt, "end_lineno", stmt.lineno) or stmt.lineno
    if hasattr(stmt, "body") and isinstance(getattr(stmt, "body"), list) and stmt.body:
        # Compound statement: header lines plus decorators.
        header_end = min(child.lineno for child in stmt.body) - 1
        candidates.update(range(stmt.lineno, max(stmt.lineno, header_end) + 1))
        for decorator in getattr(stmt, "decorator_list", []) or []:
            dec_end = getattr(decorator, "end_lineno", decorator.lineno)
            candidates.update(range(decorator.lineno, (dec_end or decorator.lineno) + 1))
    else:
        candidates.update(range(stmt.lineno, end + 1))
    return candidates


def _smallest_enclosing_stmt(tree: ast.Module, line: int) -> ast.stmt | None:
    """The innermost statement whose span contains ``line``."""
    best: ast.stmt | None = None
    best_span = None
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        start = node.lineno
        for decorator in getattr(node, "decorator_list", []) or []:
            start = min(start, decorator.lineno)
        end = getattr(node, "end_lineno", node.lineno) or node.lineno
        if not start <= line <= end:
            continue
        span = (end - start, -start)
        if best_span is None or span < best_span:
            best, best_span = node, span
    return best


def run_lint(
    targets: Sequence[Path], config: LintConfig | None = None
) -> list[LintViolation]:
    """Lint the targets and return every unsuppressed violation.

    Every parsed module joins one :class:`ProjectIndex`; each enabled
    rule then checks the index (``check_project``) and every module in
    its scope (``check``).  Suppression comments and the config's
    enable/disable switches apply to both kinds of finding alike.

    Violations come back sorted by path, line, col, then rule id —
    byte-stable output for both humans and CI diffs.
    """
    config = config or LintConfig()
    violations: list[LintViolation] = []
    modules: list[ModuleInfo] = []
    for path in collect_files(targets):
        if config.path_excluded(path):
            continue
        parsed = parse_module(path)
        if isinstance(parsed, LintViolation):
            violations.append(parsed)
        else:
            modules.append(parsed)
    index = ProjectIndex(modules)
    for rule in all_rules():
        if not config.rule_enabled(rule.id):
            continue
        found = list(rule.check_project(index))
        for module in modules:
            if rule.applies_to(module):
                found.extend(rule.check(module))
        violations.extend(
            v for v in found if not _suppressed(index.by_path[v.path], v)
        )
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule_id, v.message))
    return violations


def iter_rule_catalog() -> Iterator[tuple[str, str]]:
    """(rule id, rationale) pairs, in registry order, for ``--list-rules``."""
    for cls in RULE_CLASSES:
        yield cls.id, cls.rationale


def rule_catalog_hash() -> str:
    """Stable digest of the rule catalog.

    Emitted in the JSON payload so CI can tell "same findings" from
    "same findings, different rule set" when diffing runs byte-for-byte.
    """
    import hashlib

    text = "\n".join(f"{rid}:{rationale}" for rid, rationale in iter_rule_catalog())
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
