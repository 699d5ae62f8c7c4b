"""Flow substrate: project index, shared resolver, call targets."""

import ast
from pathlib import Path

from repro.lint import ModuleResolver, collect_files, parse_module
from repro.lint.flow.index import ProjectIndex
from repro.lint.rules.base import dotted_name

FLOWTREE = Path(__file__).parent / "fixtures" / "flowtree"


def build_index(root=FLOWTREE) -> ProjectIndex:
    modules = [parse_module(p) for p in collect_files([root])]
    return ProjectIndex([m for m in modules if not isinstance(m, tuple)])


def parse_source(tmp_path, source, name="mod.py"):
    path = tmp_path / name
    path.write_text(source)
    return parse_module(path)


class TestModuleResolver:
    def test_plain_import_and_alias(self, tmp_path):
        module = parse_source(
            tmp_path, "import time\nimport random as rnd\n"
        )
        resolver = ModuleResolver(module)
        assert resolver.canonical("time.monotonic") == "time.monotonic"
        assert resolver.canonical("rnd.random") == "random.random"

    def test_from_import_resolves_to_dotted_target(self, tmp_path):
        module = parse_source(
            tmp_path, "from time import monotonic\nfrom random import choice as c\n"
        )
        resolver = ModuleResolver(module)
        assert resolver.canonical("monotonic") == "time.monotonic"
        assert resolver.canonical("c") == "random.choice"

    def test_resolve_call_handles_attribute_chains(self, tmp_path):
        module = parse_source(tmp_path, "import time as t\nx = t.monotonic()\n")
        call = next(
            n for n in ast.walk(module.tree) if isinstance(n, ast.Call)
        )
        name = dotted_name(call.func)
        assert ModuleResolver(module).canonical(name) == "time.monotonic"

    def test_relative_imports_resolve_against_the_package(self, tmp_path):
        """One dot is the package itself in its ``__init__``, and the
        module's parent package elsewhere."""
        package = tmp_path / "pkg"
        package.mkdir()
        (package / "__init__.py").write_text("from .kernel import run\n")
        (package / "mod.py").write_text("from .kernel import run\n")
        (package / "deep.py").write_text("from ...kernel import run\n")
        init, mod, deep = (
            parse_module(package / name)
            for name in ("__init__.py", "mod.py", "deep.py")
        )
        assert init.module == "pkg"
        assert ModuleResolver(init).canonical("run") == "pkg.kernel.run"
        assert ModuleResolver(mod).canonical("run") == "pkg.kernel.run"
        # Dots past the top of the tree resolve to nothing.
        assert ModuleResolver(deep).imports == {}

    def test_unimported_names_pass_through(self, tmp_path):
        module = parse_source(tmp_path, "y = foo.bar()\n")
        resolver = ModuleResolver(module)
        assert resolver.canonical("foo.bar") == "foo.bar"


class TestProjectIndex:
    def test_indexes_functions_and_methods(self):
        index = build_index()
        assert "repro.helpers.util.stamp" in index.functions
        assert "repro.sim.messages.MessageBus.send" in index.functions
        fn = index.functions["repro.sim.messages.MessageBus.send"]
        assert fn.class_name == "MessageBus"
        assert fn.params[:2] == ["src", "dst"]  # self stripped

    def test_resolves_through_from_import(self):
        index = build_index()
        qname = index.resolve_name("repro.cluster.mini_broker", "MessageBus.send")
        assert qname == "repro.sim.messages.MessageBus.send"

    def test_self_attr_type_from_annotated_param(self):
        index = build_index()
        cls = index.classes["repro.cluster.mini_broker.MiniBroker"]
        assert cls.attr_types["bus"] == "MessageBus"


def call_targets(index, qname):
    """Every resolved target of the calls in function ``qname``."""
    fn = index.functions[qname]
    calls = [node for node in ast.walk(fn.node) if isinstance(node, ast.Call)]
    return {index.resolve_call_target(fn, call) for call in calls} - {None}


class TestCallGraph:
    """Call targets as the ``tick-units`` pass resolves them: across
    modules, out to imported names, and through typed ``self``
    attributes."""

    def test_edges_resolve_across_modules(self):
        targets = call_targets(build_index(), "repro.core.bad_reach.activate")
        assert ("internal", "repro.helpers.util.stamp") in targets

    def test_external_sinks_get_ext_keys(self):
        targets = call_targets(build_index(), "repro.helpers.util.stamp")
        assert targets == {("external", "time.monotonic")}

    def test_annotated_self_attr_receiver_resolves(self):
        """``self.bus.send`` where ``__init__`` took ``bus: MessageBus``."""
        place = "repro.cluster.mini_broker.MiniBroker.place"
        assert call_targets(build_index(), place) == {
            ("internal", "repro.sim.messages.MessageBus.send")
        }
