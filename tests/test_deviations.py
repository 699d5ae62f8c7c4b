"""The strict xfails and EXPERIMENTS.md's known deviations are one list.

A strict xfail pins an open breach, and EXPERIMENTS.md "Known
deviations, summarized" says what it is.  Every ``xfail(strict=True)``
marker under ``tests/`` must belong to a test some deviation cites, and
every deviation "pinned as the strict xfail `<test>`" must name a test
that exists and carries the marker (a module path names every marked
test in it).  So a marker and its deviation leave together: the change
that makes the test pass drops both.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINNED = re.compile(r"pinned\s+as\s+the\s+strict\s+xfail\s+`([^`]+)`")


def deviations() -> dict[int, str]:
    """Each numbered item of "Known deviations, summarized", by number."""
    text = (ROOT / "EXPERIMENTS.md").read_text()
    section = text.split("## Known deviations, summarized", 1)[1]
    section = section.split("\n## ", 1)[0]
    items = {}
    for item in re.split(r"\n(?=\d+\. )", section):
        number = re.match(r"\s*(\d+)\. ", item)
        if number:
            items[int(number.group(1))] = item
    return items


def _is_strict_xfail(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "xfail"
        and any(
            k.arg == "strict"
            and isinstance(k.value, ast.Constant)
            and k.value.value is True
            for k in node.keywords
        )
    )


def strict_xfails() -> tuple[list[str], list[str]]:
    """The ids of the tests (or classes, or modules) under ``tests/``
    that carry a strict xfail as a decorator or a module ``pytestmark``,
    and the places of any other strict xfail call."""
    marked, elsewhere = [], []
    for path in sorted((ROOT / "tests").rglob("*.py")):
        if "fixtures" in path.parts:
            continue  # the linter's inputs, not tests
        module = path.relative_to(ROOT).as_posix()
        tree = ast.parse(path.read_text(), filename=module)
        attributed = set()

        def visit(body, prefix):
            for node in body:
                if isinstance(node, ast.Assign) and not prefix and any(
                    isinstance(t, ast.Name) and t.id == "pytestmark"
                    for t in node.targets
                ):
                    for call in ast.walk(node.value):
                        if _is_strict_xfail(call):
                            attributed.add(call)
                            marked.append(module)
                elif isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    name = f"{prefix}::{node.name}"
                    for decorator in node.decorator_list:
                        if _is_strict_xfail(decorator):
                            attributed.add(decorator)
                            marked.append(module + name)
                    if isinstance(node, ast.ClassDef):
                        visit(node.body, name)

        visit(tree.body, "")
        elsewhere += [
            f"{module}:{node.lineno}"
            for node in ast.walk(tree)
            if _is_strict_xfail(node) and node not in attributed
        ]
    return marked, elsewhere


def _names(cited: str, test: str) -> bool:
    return test == cited or test.startswith(cited + "::")


def test_every_strict_xfail_is_a_known_deviation():
    marked, elsewhere = strict_xfails()
    assert not elsewhere, f"strict xfails this test cannot attribute: {elsewhere}"
    cited = [name for item in deviations().values() for name in PINNED.findall(item)]
    uncited = [test for test in marked if not any(_names(c, test) for c in cited)]
    assert not uncited, f"strict xfails no known deviation cites: {uncited}"


def test_every_pinned_deviation_names_a_strict_xfail():
    marked, _ = strict_xfails()
    stale = {
        number: name
        for number, item in deviations().items()
        for name in PINNED.findall(item)
        if not any(_names(name, test) for test in marked)
    }
    assert not stale, f"deviations pinned to a missing or unmarked test: {stale}"


def test_both_lists_are_read():
    """Neither check above passes by reading nothing."""
    marked, _ = strict_xfails()
    numbers = sorted(deviations())
    assert marked and any(PINNED.search(item) for item in deviations().values())
    assert numbers == list(range(1, len(numbers) + 1))
