"""Command-line front end for repro-lint.

Usage::

    python -m repro.lint src/                 # human-readable output
    python -m repro.lint src/ --format=json   # machine-readable (CI)
    python -m repro.lint --list-rules
    python -m repro.lint --explain tick-units

Exit codes: 0 = clean, 1 = violations found, 2 = usage error (an
unknown rule, or a path that is missing or holds no Python file) — so
CI can gate on the return code directly.

The JSON payload is byte-deterministic (stable violation order, sorted
keys) and carries its ``schema_version``.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from pathlib import Path

from repro.lint.engine import collect_files, run_lint
from repro.lint.rules import RULE_CLASSES
from repro.lint.rules.base import Rule

EXIT_CLEAN = 0
EXIT_VIOLATIONS = 1
EXIT_ERROR = 2

#: Version of the ``--format=json`` payload.  Bump when its shape
#: changes.
JSON_SCHEMA_VERSION = 5


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Static analysis for the Resource Distributor codebase: "
            "layering, determinism, units discipline, error hygiene, "
            "and whole-program flow analysis."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to lint (default: src/)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "--explain",
        metavar="RULE",
        default=None,
        help="print a rule's full documentation (docstring + rationale) "
        "and exit",
    )
    return parser


def _print_rules() -> None:
    width = max(len(cls.id) for cls in RULE_CLASSES)
    for cls in RULE_CLASSES:
        print(f"{cls.id:<{width}}  {cls.rationale}")


def _explain(rule_id: str) -> int:
    for cls in RULE_CLASSES:
        if cls.id == rule_id:
            whole = cls.check_project is not Rule.check_project
            tier = "flow (whole-program)" if whole else "per-module"
            print(f"{cls.id} [{tier}]")
            print(f"rationale: {cls.rationale}")
            doc = inspect.getdoc(cls)
            if doc:
                print()
                print(doc)
            return EXIT_CLEAN
    known = ", ".join(sorted(cls.id for cls in RULE_CLASSES))
    print(
        f"repro-lint: unknown rule {rule_id!r} (known: {known})",
        file=sys.stderr,
    )
    return EXIT_ERROR


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        _print_rules()
        return EXIT_CLEAN
    if args.explain is not None:
        return _explain(args.explain)

    paths = args.paths or [Path("src")]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(
            f"repro-lint: no such path: {', '.join(map(str, missing))}",
            file=sys.stderr,
        )
        return EXIT_ERROR
    empty = [p for p in paths if not collect_files([p])]
    if empty:
        print(
            f"repro-lint: no Python file in: {', '.join(map(str, empty))}",
            file=sys.stderr,
        )
        return EXIT_ERROR

    violations = run_lint(paths)

    if args.format == "json":
        payload = {
            "schema_version": JSON_SCHEMA_VERSION,
            "count": len(violations),
            "violations": [v.to_dict() for v in violations],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for violation in violations:
            print(violation.format())
        if violations:
            print(f"repro-lint: {len(violations)} violation(s)", file=sys.stderr)
    return EXIT_VIOLATIONS if violations else EXIT_CLEAN


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
