"""Every module and every public name under ``src/repro`` is on a path
something runs.

DESIGN.md §4 "Paths": a module stays only while a command, gate or
artifact consumes it.  This follows the import statements (module-level
and function-local) from the declared entry points, ``benchmarks/`` and
``examples/`` and fails on a module they never reach: one that only
tests import, one that only another unreached module imports, or one
kept alive only by its package ``__init__`` re-exporting a name nobody
asks for.  What it cannot see is a reachable module whose *output*
nothing reads (the stack sampler was one); the module table in
DESIGN.md is where that is reviewed.

The same holds one level down: a public function, class or method whose
name no code in ``src/``, ``benchmarks/`` or ``examples/`` uses is
reached only by tests, and goes (its tests are restated against the
data it read).  A use is an identifier in the syntax tree — a name, an
attribute, an imported name, or a word of a string constant (how
``getattr`` and the benchmark's tracer reach a method) — so a docstring
or comment that mentions a name keeps nothing alive, while a name
shared with anything else in those trees counts as used; a package
``__init__``'s imports and ``__all__`` do not count, since re-exporting
a name is not using it.

State goes the same way: an attribute that ``src/`` stores and nothing
in ``src/``, ``benchmarks/``, ``examples/`` or ``tests/`` ever loads is
written for no reader.
"""

import ast
import re
import tomllib
from collections import Counter
from pathlib import Path
from typing import Iterator

REPO = Path(__file__).parent.parent

#: The paper's own task models that no scenario wires yet (§5.3's
#: cool-down task, §5.4's display refresh controller, §3.1's 2D
#: graphics): ``tests/tasks`` is their consumer.  The audit covers the
#: tooling around the paper's mechanism, not the mechanism.
PAPER_MODELS = {"repro.tasks.cooldown", "repro.tasks.drc", "repro.tasks.graphics2d"}

#: Public names kept with no caller in ``src/``, ``benchmarks/`` or
#: ``examples/``, each with its reason.  Everything else unreferenced
#: is a test's private accessor and fails ``test_every_public_name_is_used``.
KEPT_NAMES = {
    "CooldownTask": "§5.3's cool-down task model (PAPER_MODELS)",
    "attach_drc": "§5.4's display refresh controller model (PAPER_MODELS)",
    "FrameBuffer.begin_frame": "§5.4's frame buffer the DRC model drives",
    "FrameBuffer.finish_frame": "§5.4's frame buffer the DRC model drives",
    "Renderer2D": "§3.1's 2D graphics task model (PAPER_MODELS)",
    "TaskContext.preemption_pending": "§5.6: a task may poll for a pending preemption",
    "ResourceDistributor.set_policy_override": "§7: the user's policy override",
    "ResourceDistributor.clear_policy_override": "§7: the user's policy override",
    "InterruptSource": "§5.2: the interrupt load the reserve absorbs; the reserve-sizing tests drive it",
    "ResourceManager.usage": "Figure 2: the Scheduler's accounting, as the RM reports it",
    "Histogram.observe": "test_metrics_fold's reference fold observes event by event",
    "_ServerConnection.data_received": "asyncio.Protocol callback the transport calls",
    "_ServerConnection.connection_made": "asyncio.Protocol callback the transport calls",
    "_ServerConnection.connection_lost": "asyncio.Protocol callback the transport calls",
    "_ServerConnection.eof_received": "asyncio.Protocol callback the transport calls",
    "_ServerConnection.pause_writing": "asyncio.Protocol callback the transport calls",
    "_ServerConnection.resume_writing": "asyncio.Protocol callback the transport calls",
}


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


#: A string constant's words: identifiers, dotted or not.
_WORD = re.compile(r"[A-Za-z_]\w*")


def _docstrings(tree: ast.AST) -> Iterator[ast.Constant]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                yield first.value


def _uses(path: Path) -> Iterator[str]:
    """The identifiers a file's code uses, less its docstrings and a
    package ``__init__``'s imports and ``__all__``: re-exporting a name
    is not a use of it."""
    tree = ast.parse(path.read_text())
    skipped = {id(node) for node in _docstrings(tree)}
    if path.name == "__init__.py":
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) or _binds_all(node):
                skipped.update(id(n) for n in ast.walk(node))
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield from _WORD.findall(node.value)


def _binds_all(node: ast.AST) -> bool:
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return False
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def find_unused_names(repo: Path) -> list[str]:
    """Public ``src/repro`` functions, classes and methods (as
    ``Class.method``) whose name no code in the ``src``, ``benchmarks``
    and ``examples`` trees uses."""
    words: Counter[str] = Counter()
    for directory in ("src", "benchmarks", "examples"):
        for path in sorted((repo / directory).rglob("*.py")):
            words.update(_uses(path))
    defined: dict[str, list[str]] = {}

    def visit(body, owner: str) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, []).append(owner + node.name)
                if isinstance(node, ast.ClassDef):
                    visit(node.body, f"{node.name}.")

    for path in sorted((repo / "src" / "repro").rglob("*.py")):
        visit(ast.parse(path.read_text()).body, "")
    return sorted(
        qualified
        for name, places in defined.items()
        if not name.startswith("_") and not words[name]
        for qualified in places
    )


def find_write_only(repo: Path) -> list[str]:
    """Attributes ``src/repro`` stores (``x.name = ...``, ``+=``) that
    no code in ``src``, ``benchmarks``, ``examples`` or ``tests`` loads,
    as ``path:line`` of the first store, by attribute name."""
    loaded: set[str] = set()
    for directory in ("src", "benchmarks", "examples", "tests"):
        for path in sorted((repo / directory).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                    loaded.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    loaded.update(_WORD.findall(node.value))
    stored: dict[str, str] = {}
    for path in sorted((repo / "src" / "repro").rglob("*.py")):
        relative = path.relative_to(repo / "src").as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                stored.setdefault(node.attr, f"{relative}:{node.attr}")
    return sorted(where for name, where in stored.items() if name not in loaded)


#: The modules that parse a command line: only they read an argparse
#: namespace; everything below takes plain arguments.
COMMAND_LAYER = {"repro/cli.py", "repro/lint/cli.py"}


def find_args_readers(src: Path) -> list[str]:
    """Functions outside :data:`COMMAND_LAYER` that read an attribute of
    a parameter named ``args``, as ``path:function``."""
    found = []
    for path in sorted((src / "repro").rglob("*.py")):
        relative = path.relative_to(src).as_posix()
        if relative in COMMAND_LAYER:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            if "args" in {a.arg for a in params} and any(
                isinstance(n, ast.Attribute)
                and isinstance(n.value, ast.Name)
                and n.value.id == "args"
                for n in ast.walk(node)
            ):
                found.append(f"{relative}:{node.name}")
    return sorted(found)


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


def test_every_public_name_is_used():
    assert find_unused_names(REPO) == sorted(KEPT_NAMES)


def test_an_unused_name_is_caught(tmp_path):
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (tmp_path / "examples").mkdir()
    (pkg / "box.py").write_text(
        '"""Boxes; ``Box.as_tuple`` and ``stale()`` are only mentioned here."""\n'
        "class Box:\n"
        "    def size(self):\n        return self._hidden()\n"
        "    def _hidden(self):\n        return 1\n"
        "    def as_tuple(self):\n        return ()\n"
        "    def label(self):\n        return ()\n"
        "def helper():\n    # stale() was here\n"
        "    return Box().size(), getattr(Box(), 'label')\n"
        "def stale():\n    return None\n"
    )
    (pkg / "__init__.py").write_text(
        "from repro.box import Box, helper\n"
        "from repro.crate import (\n    Crate,\n)\n"
        "__all__ = [\"Box\", \"Crate\", \"helper\"]\n"
    )
    # Only re-exported: the package's import and ``__all__`` are not uses.
    (pkg / "crate.py").write_text("class Crate:\n    pass\n")
    (tmp_path / "examples" / "demo.py").write_text("from repro.box import helper\n")
    assert find_unused_names(tmp_path) == ["Box.as_tuple", "Crate", "stale"]


def test_every_stored_attribute_is_read():
    assert find_write_only(REPO) == []


def test_a_write_only_attribute_is_caught(tmp_path):
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (tmp_path / "tests").mkdir()
    (pkg / "meter.py").write_text(
        "class Meter:\n"
        "    def __init__(self):\n"
        "        self.ticks = 0\n        self.debt = 0\n        self.peak = 0\n"
        "    def tick(self):\n        self.ticks += 1\n        self.debt += 1\n"
        "        return getattr(self, 'peak')\n"
    )
    (tmp_path / "tests" / "test_meter.py").write_text(
        "def test_ticks(meter):\n    assert meter.ticks\n"
    )
    assert find_write_only(tmp_path) == ["repro/meter.py:debt"]


def test_argparse_stops_at_the_command_layer():
    assert find_args_readers(REPO / "src") == []


def test_an_args_reader_is_caught(tmp_path):
    pkg = tmp_path / "repro"
    (pkg / "lint").mkdir(parents=True)
    (pkg / "cli.py").write_text("def cmd(args):\n    return args.port\n")
    (pkg / "lint" / "cli.py").write_text("def main(args):\n    return args.fmt\n")
    (pkg / "serve.py").write_text(
        "def serve_main(args):\n    return args.port\n"
        "async def boot(host, args=None):\n    return args.nodes\n"
        "def plain(port):\n    args = parse()\n    return args.port\n"
        "def spread(*args):\n    return len(args)\n"
    )
    assert find_args_readers(tmp_path) == [
        "repro/serve.py:boot",
        "repro/serve.py:serve_main",
    ]
