"""Resolved call graph over a :class:`ProjectIndex`.

Nodes are function qnames (internal), one ``<module>.<module>`` node per
module for the code that runs outside any indexed function (module
level and class bodies), or ``ext:<dotted>`` keys for import-resolved
external targets (``ext:time.time``).  Edges remember every call site
so reachability answers come back with a *path witness* — the chain of
qnames a diagnostic can print — and the call the offending first hop
makes.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.lint.flow.index import FunctionInfo, ModuleTable, ProjectIndex


def ext(dotted: str) -> str:
    """Graph key for an external callee."""
    return f"ext:{dotted}"


@dataclass(frozen=True)
class CallSite:
    """One resolved call: ``caller`` invokes ``callee`` with ``node``."""

    caller: str
    callee: str
    node: ast.Call


class CallGraph:
    """Forward adjacency with call-site provenance."""

    def __init__(self, index: ProjectIndex) -> None:
        self.index = index
        self.edges: dict[str, list[CallSite]] = {}
        #: Every node that makes calls: each indexed function, then each
        #: module's top-level code.
        self.callers: list[FunctionInfo] = []
        for fn in index.iter_functions():
            self._add(fn, self._walk_body(fn.node))
        for table in index.tables.values():
            top = FunctionInfo(f"{table.module}.<module>", table.module, table.info.tree)
            self._add(top, _walk_top_level(table))

    def _add(self, fn: FunctionInfo, nodes: Iterator[ast.AST]) -> None:
        self.callers.append(fn)
        for node in nodes:
            if not isinstance(node, ast.Call):
                continue
            resolved = self.index.resolve_call_target(fn, node)
            if resolved is None:
                continue
            kind, target = resolved
            callee = target if kind == "internal" else ext(target)
            self.edges.setdefault(fn.qname, []).append(CallSite(fn.qname, callee, node))

    @staticmethod
    def _walk_body(func: ast.AST) -> Iterator[ast.AST]:
        """Walk a function body, including nested defs.

        Only module- and class-level defs are symbols in the index, so
        calls inside a nested closure are attributed to the enclosing
        function — reachability treats the closure as inlined, which
        is what a lint wants.
        """
        stack = list(ast.iter_child_nodes(func))
        while stack:
            node = stack.pop()
            yield node
            stack.extend(ast.iter_child_nodes(node))

    def callees(self, qname: str) -> list[CallSite]:
        return self.edges.get(qname, [])

    # -- reachability -------------------------------------------------------

    def reaches(
        self,
        start: str,
        targets: set[str] | Callable[[CallSite], bool],
        skip: Callable[[str], bool] | None = None,
    ) -> list[str] | None:
        """Shortest call path from ``start`` into ``targets``, if any.

        ``targets`` is a set of node keys or a test on call sites (for a
        target that depends on the call's arguments).  Returns the
        witness as a list of node keys (``start`` first, the target's
        key last) or ``None`` when unreachable.  ``skip`` prunes
        intermediate nodes (used to model "without crossing the
        MessageBus seam"); it is never applied to ``start`` itself.
        """
        if not callable(targets):
            if start in targets:
                return [start]
            targets = _calls_into(targets)
        parent: dict[str, str] = {start: ""}
        queue: deque[str] = deque([start])
        while queue:
            current = queue.popleft()
            for site in self.edges.get(current, []):
                nxt = site.callee
                if targets(site):
                    path = [nxt, current]
                    while path[-1] != start:
                        path.append(parent[path[-1]])
                    return list(reversed(path))
                if nxt in parent or (skip is not None and skip(nxt)):
                    continue
                parent[nxt] = current
                queue.append(nxt)
        return None


def _calls_into(keys: set[str]) -> Callable[[CallSite], bool]:
    return lambda site: site.callee in keys


def _walk_top_level(table: ModuleTable) -> Iterator[ast.AST]:
    """Walk a module outside its indexed functions and methods."""
    indexed = {id(fn.node) for fn in table.functions.values()}
    indexed.update(
        id(fn.node) for cls in table.classes.values() for fn in cls.methods.values()
    )
    stack: list[ast.AST] = [table.info.tree]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(c for c in ast.iter_child_nodes(node) if id(c) not in indexed)
