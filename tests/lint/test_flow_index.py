"""Flow substrate: project index, shared resolver, call graph."""

import ast
from pathlib import Path

from repro.lint import ModuleResolver, collect_files, parse_module
from repro.lint.flow.callgraph import CallGraph, ext
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


class TestCallGraph:
    def test_edges_resolve_across_modules(self):
        index = build_index()
        graph = CallGraph(index)
        callees = {s.callee for s in graph.callees("repro.core.bad_reach.activate")}
        assert "repro.helpers.util.stamp" in callees

    def test_external_sinks_get_ext_keys(self):
        index = build_index()
        graph = CallGraph(index)
        callees = {s.callee for s in graph.callees("repro.helpers.util.stamp")}
        assert ext("time.monotonic") in callees

    def test_reaches_returns_shortest_witness(self):
        index = build_index()
        graph = CallGraph(index)
        path = graph.reaches(
            "repro.core.bad_reach.schedule", {ext("time.monotonic")}
        )
        assert path == [
            "repro.core.bad_reach.schedule",
            "repro.helpers.util.chain",
            "repro.helpers.util.stamp",
            "ext:time.monotonic",
        ]

    def test_annotated_self_attr_receiver_resolves(self):
        """``self.bus.send`` where ``__init__`` took ``bus: MessageBus``."""
        graph = CallGraph(build_index())
        place = "repro.cluster.mini_broker.MiniBroker.place"
        callees = {s.callee for s in graph.callees(place)}
        assert callees == {"repro.sim.messages.MessageBus.send"}

    def test_unreachable_returns_none(self):
        index = build_index()
        graph = CallGraph(index)
        assert (
            graph.reaches("repro.core.good_reach.advance", {ext("time.monotonic")})
            is None
        )

    def test_skip_prunes_paths(self):
        index = build_index()
        graph = CallGraph(index)
        path = graph.reaches(
            "repro.core.bad_reach.schedule",
            {ext("time.monotonic")},
            skip=lambda key: key == "repro.helpers.util.chain",
        )
        assert path is None

    def test_a_target_can_be_a_test_on_the_call(self):
        index = build_index()
        graph = CallGraph(index)
        path = graph.reaches(
            "repro.core.bad_determinism.seeded",
            lambda site: site.callee == ext("random.Random") and not site.node.args,
        )
        assert path is None
        path = graph.reaches(
            "repro.core.bad_determinism.seeded",
            lambda site: site.callee == ext("random.Random"),
        )
        assert path == ["repro.core.bad_determinism.seeded", "ext:random.Random"]

    def test_top_level_code_is_one_node_per_module(self):
        index = build_index()
        graph = CallGraph(index)
        top = "repro.cluster.bad_determinism.<module>"
        assert {s.callee for s in graph.callees(top)} == {
            ext("time.time"),
            ext("random.random"),
        }
        assert top in {caller.qname for caller in graph.callers}
        # A method's body belongs to the method, not to the module.
        method = "repro.cluster.bad_determinism.Jitter.skew"
        assert {s.callee for s in graph.callees(method)} == {ext("random.randint")}
