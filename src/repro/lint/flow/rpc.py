"""Flow rule: RPC idempotency-token exception safety
(``rpc-exception-safety``)."""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

from repro.lint.flow.callgraph import CallGraph
from repro.lint.flow.index import FunctionInfo, ProjectIndex
from repro.lint.rules.base import LintViolation, Rule, dotted_name

#: Internal transport endpoints: raising out of these after a token
#: was registered leaves the token stranded.
TRANSPORT_QNAMES = ("repro.sim.messages.MessageBus.send",)

#: Receiver/method shapes that count as transport even when the
#: receiver's type cannot be resolved (``self.bus.send(...)``).
TRANSPORT_ATTR_HINTS = frozenset({"bus"})
TRANSPORT_METHODS = frozenset({"send"})

#: Attribute/name fragments that mark an idempotency-token store.
_STORE_FRAGMENTS = ("pending", "token", "inflight", "replies")

#: Cleanup forms that release a token: ``del store[...]``,
#: ``store.pop(...)``, ``store.clear()``.
_CLEANUP_METHODS = frozenset({"pop", "clear", "popitem"})


def _is_store_name(name: str) -> bool:
    lowered = name.lower().lstrip("_")
    return any(fragment in lowered for fragment in _STORE_FRAGMENTS)


@dataclass(frozen=True)
class _StoreRef:
    """A reference to a token store: ``self._pending`` or ``PENDING``."""

    text: str  # rendered form for diagnostics and matching


def _store_of(node: ast.expr) -> _StoreRef | None:
    name = dotted_name(node)
    if name is None:
        return None
    if _is_store_name(name.rsplit(".", 1)[-1]):
        return _StoreRef(name)
    return None


class RpcExceptionSafetyRule(Rule):
    """Flag RPC sends whose failure path leaks an idempotency token.

    The broker's exactly-once story rests on token bookkeeping: a
    request id is registered in a pending/reply store, the request
    goes out over the MessageBus, and the store entry is released when
    the reply (or timeout) arrives.  ``MessageBus.send`` can raise
    (unknown endpoint, bus shutdown); if the registration precedes the
    send and no ``try/finally`` or exception handler releases the
    token, the failure path leaves a stranded entry — the task is
    never retried *and* never admitted, the quiet cousin of the
    paper's never-terminated violation.

    Detection, per function: a subscript-store into a token store
    (name containing ``pending``/``token``/``inflight``/``replies``),
    followed later in the body by a call that reaches a transport
    endpoint (``MessageBus.send``, directly or through helpers — the
    witness shows the chain), with no intervening release of the same
    store and no enclosing ``try`` whose handler or ``finally`` block
    releases it.
    """

    id = "rpc-exception-safety"
    rationale = (
        "an idempotency token registered before an RPC send must be "
        "released on the failure path (try/finally or except cleanup); "
        "a raising send otherwise strands the token (exception safety)"
    )

    def check_project(self, index: ProjectIndex) -> Iterator[LintViolation]:
        graph = CallGraph(index)
        transport = set(TRANSPORT_QNAMES)
        for fn in index.iter_functions():
            yield from self._check_function(fn, index, graph, transport)

    def _check_function(
        self,
        fn: FunctionInfo,
        index: ProjectIndex,
        graph: CallGraph,
        transport: set[str],
    ) -> Iterator[LintViolation]:
        registrations: list[tuple[int, _StoreRef, ast.AST]] = []
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Subscript):
                        store = _store_of(target.value)
                        if store is not None:
                            registrations.append((node.lineno, store, node))
        if not registrations:
            return
        protected = _protected_lines(fn.node)
        releases = sorted(_release_lines(fn.node))
        for call, resolved_path in self._transport_calls(
            fn, index, graph, transport
        ):
            for reg_line, store, reg_node in registrations:
                if reg_line >= call.lineno:
                    continue
                if any(
                    reg_line < release_line <= call.lineno
                    and _is_same_store(release_store, store)
                    for release_line, release_store in releases
                ):
                    continue  # released before the send
                if any(
                    start <= call.lineno <= end
                    and _is_same_store(release_store, store)
                    for start, end, release_store in protected
                ):
                    continue  # the send is under a cleaning try
                witness = (fn.qname, *resolved_path)
                yield self.violation(
                    index.tables[fn.module].info,
                    call,
                    f"idempotency token registered into {store.text} "
                    f"before this RPC send is stranded if the send raises; "
                    f"release it in a try/finally or except path",
                    witness=witness,
                )
                break  # one finding per risky send is enough

    def _transport_calls(
        self,
        fn: FunctionInfo,
        index: ProjectIndex,
        graph: CallGraph,
        transport: set[str],
    ) -> Iterator[tuple[ast.Call, tuple[str, ...]]]:
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            resolved = index.resolve_call_target(fn, node)
            if resolved is not None and resolved[0] == "internal":
                qname = resolved[1]
                if qname in transport:
                    yield node, (qname,)
                    continue
                path = graph.reaches(qname, transport)
                if path is not None:
                    yield node, tuple(path)
                    continue
            # Unresolvable receiver: fall back on the ``self.bus.send``
            # shape so untyped broker code is still covered.
            if isinstance(node.func, ast.Attribute):
                name = dotted_name(node.func) or ""
                parts = name.split(".")
                if (
                    len(parts) >= 2
                    and parts[-1] in TRANSPORT_METHODS
                    and parts[-2] in TRANSPORT_ATTR_HINTS
                    and resolved is None
                ):
                    yield node, (f"{name} (MessageBus by shape)",)


def _is_same_store(a: _StoreRef, b: _StoreRef) -> bool:
    return a.text.rsplit(".", 1)[-1] == b.text.rsplit(".", 1)[-1]


def _release_lines(func: ast.AST) -> Iterator[tuple[int, _StoreRef]]:
    """Lines that release a token: ``del s[...]`` / ``s.pop(...)``."""
    for node in ast.walk(func):
        if isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    store = _store_of(target.value)
                    if store is not None:
                        yield node.lineno, store
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _CLEANUP_METHODS
        ):
            store = _store_of(node.func.value)
            if store is not None:
                yield node.lineno, store


def _protected_lines(func: ast.AST) -> list[tuple[int, int, _StoreRef]]:
    """Line ranges protected by a try whose handler/finally releases a
    store: ``(try_start, try_end, released_store)``."""
    out: list[tuple[int, int, _StoreRef]] = []
    for node in ast.walk(func):
        if not isinstance(node, ast.Try):
            continue
        cleanup_bodies = [node.finalbody]
        cleanup_bodies.extend(handler.body for handler in node.handlers)
        released: list[_StoreRef] = []
        for body in cleanup_bodies:
            for sub in body:
                for line, store in _release_lines_of_stmts([sub]):
                    released.append(store)
        if not released or not node.body:
            continue
        start = node.body[0].lineno
        end = max(
            getattr(s, "end_lineno", s.lineno) or s.lineno for s in node.body
        )
        for store in released:
            out.append((start, end, store))
    return out


def _release_lines_of_stmts(stmts: list[ast.stmt]) -> Iterator[tuple[int, _StoreRef]]:
    for stmt in stmts:
        yield from _release_lines(stmt)
