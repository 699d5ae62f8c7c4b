"""Every module under ``src/repro`` is on a path something runs.

DESIGN.md §4 "Paths": a module stays only while a command, gate or
artifact consumes it.  This follows the import statements (module-level
and function-local) from the declared entry points, ``benchmarks/`` and
``examples/`` and fails on a module they never reach: one that only
tests import, one that only another unreached module imports, or one
kept alive only by its package ``__init__`` re-exporting a name nobody
asks for.  What it cannot see is a reachable module whose *output*
nothing reads (the stack sampler was one); the module table in
DESIGN.md is where that is reviewed.
"""

import ast
import tomllib
from pathlib import Path

REPO = Path(__file__).parent.parent

#: The paper's own task models that no scenario wires yet (§5.3's
#: cool-down task, §5.4's display refresh controller, §3.1's 2D
#: graphics): ``tests/tasks`` is their consumer.  The audit covers the
#: tooling around the paper's mechanism, not the mechanism.
PAPER_MODELS = {"repro.tasks.cooldown", "repro.tasks.drc", "repro.tasks.graphics2d"}


def _modules(src: Path) -> dict[str, Path]:
    modules = {}
    for path in sorted(src.rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        modules[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path
    return modules


def _entry_points(repo: Path, modules: dict[str, Path]) -> set[str]:
    """``python -m`` targets and the console scripts pyproject declares."""
    project = tomllib.loads((repo / "pyproject.toml").read_text())["project"]
    mains = {name for name in modules if name.endswith(".__main__")}
    return mains | {target.split(":")[0] for target in project["scripts"].values()}


def _parents(module: str):
    """``module`` and every package above it (importing one runs them all)."""
    while module:
        yield module
        module = module.rpartition(".")[0]


class _Graph:
    """Who imports whom, with a package ``__init__``'s pure re-exports
    (``from pkg.sub import name`` where ``name`` is not used again in the
    ``__init__``) seen through: ``from pkg import name`` is an import of
    ``pkg.sub``, and the re-export alone keeps nothing alive."""

    def __init__(self, modules: dict[str, Path]):
        self.modules = modules
        self.trees = {name: ast.parse(path.read_text()) for name, path in modules.items()}
        #: package -> {re-exported name: (module it comes from, its name there)}
        self.reexports: dict[str, dict[str, tuple[str, str]]] = {}
        for name, path in modules.items():
            if path.name == "__init__.py":
                tree = self.trees[name]
                used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
                self.reexports[name] = {
                    a.asname or a.name: (node.module, a.name)
                    for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)
                    and node.module.startswith(name + ".")
                    for a in node.names
                    if (a.asname or a.name) not in used
                }

    def _resolve(self, module: str, name: str) -> str:
        if f"{module}.{name}" in self.modules:
            return f"{module}.{name}"
        if name in self.reexports.get(module, ()):
            return self._resolve(*self.reexports[module][name])
        return module

    def imports(self, tree: ast.AST, package: str | None = None) -> set[str]:
        """The modules ``tree`` imports; ``package`` names the package it
        is the ``__init__`` of, whose pure re-exports are left out."""
        found: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                found.update(
                    self._resolve(node.module, a.name)
                    for a in node.names
                    if (a.asname or a.name) not in self.reexports.get(package, ())
                )
        return {m for target in found for m in _parents(target) if m in self.modules}

    def reachable(self, roots: set[str], root_trees: list[ast.AST]) -> set[str]:
        todo = {m for root in roots for m in _parents(root)}
        for tree in root_trees:
            todo |= self.imports(tree)
        seen: set[str] = set()
        while todo:
            module = todo.pop()
            seen.add(module)
            package = module if module in self.reexports else None
            todo |= self.imports(self.trees[module], package) - seen
        return seen


def find_orphans(repo: Path) -> list[str]:
    """Modules not reachable from an entry point, a bench or an example."""
    modules = _modules(repo / "src")
    scripts = [
        ast.parse(path.read_text())
        for directory in ("benchmarks", "examples")
        for path in sorted((repo / directory).rglob("*.py"))
    ]
    live = _Graph(modules).reachable(_entry_points(repo, modules), scripts)
    return sorted(set(modules) - live)


def test_every_module_is_imported_or_an_entry_point():
    assert set(find_orphans(REPO)) == PAPER_MODELS


def test_the_entry_points_are_the_declared_ones():
    assert _entry_points(REPO, _modules(REPO / "src")) == {
        "repro.__main__",
        "repro.cli",
        "repro.lint.__main__",
        "repro.lint.cli",
    }


def test_an_orphan_is_caught(tmp_path):
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (tmp_path / "pyproject.toml").write_text('[project.scripts]\ntool = "pkg.cli:main"\n')
    (pkg / "__init__.py").write_text(
        "from pkg.used import thing\n"
        "from pkg.sampler import Sampler\n"
        "from pkg.rule import Rule\n"
        "RULES = (Rule,)\n"
    )
    (pkg / "__main__.py").write_text("from pkg.cli import main\n")
    (pkg / "cli.py").write_text("def main():\n    from pkg import thing, RULES\n")
    (pkg / "used.py").write_text("thing = 1\n")
    (pkg / "rule.py").write_text("class Rule: pass\n")
    # Alive only through the package's re-export, and through each other.
    (pkg / "sampler.py").write_text("import pkg.flame\nclass Sampler: pass\n")
    (pkg / "flame.py").write_text("import pkg.used\n")
    assert find_orphans(tmp_path) == ["pkg.flame", "pkg.sampler"]
