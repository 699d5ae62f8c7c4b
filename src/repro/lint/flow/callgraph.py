"""Resolved call graph over a :class:`ProjectIndex`.

Nodes are function qnames (internal) or ``ext:<dotted>`` keys for
import-resolved external targets (``ext:time.time``).  Edges remember
every call site so reachability answers come back with a *path
witness* — the chain of qnames a diagnostic can print — and the exact
line the offending first hop occupies.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.lint.flow.index import FunctionInfo, ProjectIndex

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def ext(dotted: str) -> str:
    """Graph key for an external callee."""
    return f"ext:{dotted}"


@dataclass(frozen=True)
class CallSite:
    """One resolved call: ``caller`` invokes ``callee`` at ``line``."""

    caller: str
    callee: str
    line: int
    col: int


class CallGraph:
    """Forward adjacency with call-site provenance."""

    def __init__(self, index: ProjectIndex) -> None:
        self.index = index
        self.edges: dict[str, list[CallSite]] = {}
        for fn in index.iter_functions():
            for site in self._sites(fn):
                self.edges.setdefault(site.caller, []).append(site)

    def _sites(self, fn: FunctionInfo) -> Iterator[CallSite]:
        for node in self._walk_body(fn.node):
            if not isinstance(node, ast.Call):
                continue
            resolved = self.index.resolve_call_target(fn, node)
            if resolved is None:
                continue
            kind, target = resolved
            callee = target if kind == "internal" else ext(target)
            yield CallSite(fn.qname, callee, node.lineno, node.col_offset)

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

    def paths_to(
        self,
        start: str,
        targets: set[str],
        skip: Callable[[str], bool] | None = None,
    ) -> list[list[str]] | None:
        """Shortest call path from ``start`` to any of ``targets``.

        Returns the witness as a list of node keys (``start`` first,
        target last) or ``None`` when unreachable.  ``skip`` prunes
        intermediate nodes (used to model "without crossing the
        MessageBus seam"); it is never applied to ``start`` itself.
        """
        if start in targets:
            return [[start]]
        parent: dict[str, str] = {start: ""}
        queue: deque[str] = deque([start])
        found: list[list[str]] = []
        while queue:
            current = queue.popleft()
            for site in self.edges.get(current, []):
                nxt = site.callee
                if nxt in parent:
                    continue
                if nxt in targets:
                    parent[nxt] = current
                    path = [nxt]
                    while path[-1] != start:
                        path.append(parent[path[-1]])
                    found.append(list(reversed(path)))
                    continue
                if skip is not None and skip(nxt):
                    continue
                parent[nxt] = current
                queue.append(nxt)
        return found or None

    def reaches(
        self,
        start: str,
        targets: set[str],
        skip: Callable[[str], bool] | None = None,
    ) -> list[str] | None:
        """First witness path from ``start`` into ``targets``, if any."""
        paths = self.paths_to(start, targets, skip)
        return paths[0] if paths else None
