"""Tick-unit dimensional analysis: the abstract domain and interpreter.

Every quantity of simulated time in this codebase is an integer count
of 27 MHz ticks (``repro.units``); milliseconds, microseconds, and
seconds appear only at the human edges and must pass through the
conversion helpers.  This module infers a *dimension* for expressions —
``ticks``, ``ms``, ``us``, ``sec``, or ``fraction`` — from three
sources:

* the ``repro.units`` vocabulary (``MIN_PERIOD_TICKS`` is ticks,
  ``TICKS_PER_MS`` is a ticks/ms conversion factor, ``ms_to_ticks``
  maps ms -> ticks, ...);
* parameter and variable *names* (``period``, ``deadline``, ``now``,
  ``*_ticks`` are ticks; ``*_ms``/``duration_ms`` are ms; ...);
* a lightweight abstract interpretation of function bodies that
  propagates dimensions through assignments, arithmetic, and calls.

Unknown stays unknown: the interpreter only reports when *both* sides
of an operation carry a known, different dimension — precision over
recall, as everywhere in repro-lint.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable

from repro.lint.flow.index import FunctionInfo, ProjectIndex
from repro.lint.rules.base import dotted_name

# -- the abstract domain ----------------------------------------------------

TICKS = "ticks"
MS = "ms"
US = "us"
SEC = "sec"
FRACTION = "fraction"
#: Core clock cycles: an integer count like ticks, at ``CORE_HZ``.
CYCLES = "cycles"

#: Conversion-factor constants in ``repro.units``: multiplying a
#: quantity of the denominator dimension yields the numerator.
CONVERSION_CONSTANTS = {
    "TICKS_PER_US": (TICKS, US),
    "TICKS_PER_MS": (TICKS, MS),
    "TICKS_PER_SEC": (TICKS, SEC),
}

#: ``repro.units`` constants with a plain dimension (the ``*_HZ``
#: frequencies have none).
UNIT_CONSTANTS = {
    "MIN_PERIOD_TICKS": TICKS,
    "MAX_PERIOD_TICKS": TICKS,
    "INFINITE": TICKS,
}

#: Conversion helpers: name -> (argument dimension, result dimension).
#: ``None`` means the position carries no duration dimension.
CONVERTERS: dict[str, tuple[str | None, str | None]] = {
    "us_to_ticks": (US, TICKS),
    "ms_to_ticks": (MS, TICKS),
    "sec_to_ticks": (SEC, TICKS),
    "ticks_to_us": (TICKS, US),
    "ticks_to_ms": (TICKS, MS),
    "ticks_to_sec": (TICKS, SEC),
    "hz_to_period_ticks": (None, TICKS),
    "core_cycles_to_ticks": (CYCLES, TICKS),
    "validate_period": (TICKS, TICKS),
}

#: Builtins that pass their argument's dimension through unchanged.
PASSTHROUGH_BUILTINS = frozenset({"int", "round", "abs", "min", "max", "sum"})

#: Exact names that imply ticks wherever they appear.  ``now`` is on
#: the list because every ``now`` in this codebase is a simulated tick
#: timestamp (kernel.now, broker.handle(..., now), SimClock reads).
_TICK_NAMES = frozenset(
    {"ticks", "cpu_ticks", "now", "period", "horizon", "deadline", "tick"}
)
_MS_NAMES = frozenset({"ms", "millis", "milliseconds"})
_US_NAMES = frozenset({"us", "micros", "microseconds"})
_SEC_NAMES = frozenset({"sec", "secs", "seconds"})
_FRACTION_NAMES = frozenset({"fraction", "utilization", "util"})


def dim_of_name(name: str) -> str | None:
    """Dimension implied by an identifier, or ``None``."""
    short = name.rsplit(".", 1)[-1]
    if short in CONVERSION_CONSTANTS:
        return None  # factors are handled structurally, not as durations
    if short in UNIT_CONSTANTS:
        return UNIT_CONSTANTS[short]
    lower = short.lower()
    if lower in _TICK_NAMES or lower.endswith(("_ticks", "_tick")):
        return TICKS
    if lower in _MS_NAMES or lower.endswith("_ms"):
        return MS
    if lower in _US_NAMES or lower.endswith("_us"):
        return US
    if lower in _SEC_NAMES or lower.endswith("_sec"):
        return SEC
    if lower in _FRACTION_NAMES or lower.endswith("_fraction"):
        return FRACTION
    return None


@dataclass(frozen=True)
class DimProblem:
    """One dimensional inconsistency found while interpreting a body."""

    node: ast.AST
    message: str
    witness: tuple[str, ...] = ()


class DimInterpreter:
    """Abstract interpreter propagating dimensions through one function.

    Statements are interpreted in source order; control flow is not
    joined (the last binding wins), which is sound enough for a lint:
    a variable that holds ms on one branch and ticks on the other is
    itself the bug this analysis exists to catch, and either binding
    will collide with its downstream use.
    """

    def __init__(
        self,
        fn: FunctionInfo,
        index: ProjectIndex,
        summary: Callable[[str], str | None],
    ) -> None:
        self.fn = fn
        self.index = index
        self.summary = summary
        self.problems: list[DimProblem] = []
        self.env: dict[str, str] = {}
        for param in fn.params:
            dim = dim_of_name(param)
            if dim is not None:
                self.env[param] = dim

    # -- driving ------------------------------------------------------------

    def run(self) -> list[DimProblem]:
        for stmt in self.fn.node.body:
            self._stmt(stmt)
        return self.problems

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested scopes get their own symbols / are opaque
        if isinstance(stmt, ast.Assign):
            dim = self.eval(stmt.value)
            for target in stmt.targets:
                self._bind(target, dim)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._bind(stmt.target, self.eval(stmt.value))
            return
        if isinstance(stmt, ast.AugAssign):
            target_dim = self._target_dim(stmt.target)
            value_dim = self.eval(stmt.value)
            if isinstance(stmt.op, (ast.Add, ast.Sub)):
                self._check_pair(
                    stmt, target_dim, value_dim, "augmented assignment"
                )
            return
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.eval(stmt.value)
            return
        if isinstance(stmt, ast.Expr):
            self.eval(stmt.value)
            return
        # Compound statements: interpret tests and bodies in order.
        for expr in _stmt_exprs(stmt):
            self.eval(expr)
        for body in _stmt_bodies(stmt):
            for sub in body:
                self._stmt(sub)

    def _bind(self, target: ast.expr, dim: str | None) -> None:
        if isinstance(target, ast.Name):
            if dim is None:
                # No information from the value: fall back on what the
                # variable's own name promises, so later uses check.
                dim = dim_of_name(target.id)
            if dim is None:
                self.env.pop(target.id, None)
            else:
                name_dim = dim_of_name(target.id)
                if name_dim is not None and name_dim != dim:
                    self.problems.append(
                        DimProblem(
                            target,
                            f"binding a {dim} quantity to '{target.id}', "
                            f"whose name promises {name_dim}",
                        )
                    )
                self.env[target.id] = dim
        elif isinstance(target, ast.Tuple):
            for element in target.elts:
                self._bind(element, None)

    def _target_dim(self, target: ast.expr) -> str | None:
        if isinstance(target, ast.Name):
            return self.env.get(target.id, dim_of_name(target.id))
        if isinstance(target, ast.Attribute):
            return dim_of_name(target.attr)
        return None

    # -- expression evaluation ----------------------------------------------

    def eval(self, node: ast.expr) -> str | None:
        if isinstance(node, ast.Name):
            return self.env.get(node.id, dim_of_name(node.id))
        if isinstance(node, ast.Attribute):
            dotted = dotted_name(node)
            if dotted is not None:
                resolver = self.index.resolver(self.fn.module)
                if resolver is not None:
                    dotted = resolver.canonical(dotted)
                return dim_of_name(dotted)
            self.eval(node.value)
            return dim_of_name(node.attr)
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.BinOp):
            return self._binop(node)
        if isinstance(node, ast.Compare):
            left_dim = self.eval(node.left)
            for comparator in node.comparators:
                right_dim = self.eval(comparator)
                self._check_pair(node, left_dim, right_dim, "comparison")
                left_dim = right_dim
            return None
        if isinstance(node, ast.UnaryOp):
            return self.eval(node.operand)
        if isinstance(node, ast.IfExp):
            self.eval(node.test)
            body_dim = self.eval(node.body)
            orelse_dim = self.eval(node.orelse)
            return body_dim if body_dim is not None else orelse_dim
        if isinstance(node, ast.BoolOp):
            last: str | None = None
            for value in node.values:
                last = self.eval(value)
            return last
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            for element in node.elts:
                self.eval(element)
            return None
        if isinstance(node, ast.Subscript):
            self.eval(node.value)
            return None
        return None

    def _conversion_factor(self, node: ast.expr) -> tuple[str, str] | None:
        name = dotted_name(node)
        if name is None:
            return None
        return CONVERSION_CONSTANTS.get(name.rsplit(".", 1)[-1])

    def _binop(self, node: ast.BinOp) -> str | None:
        if isinstance(node.op, (ast.Add, ast.Sub)):
            left = self.eval(node.left)
            right = self.eval(node.right)
            self._check_pair(node, left, right, "arithmetic")
            return left if left is not None else right
        if isinstance(node.op, ast.Mult):
            # quantity * TICKS_PER_X converts X -> ticks.
            for value, factor_node in ((node.left, node.right), (node.right, node.left)):
                factor = self._conversion_factor(factor_node)
                if factor is not None:
                    numerator, denominator = factor
                    value_dim = self.eval(value)
                    if value_dim is not None and value_dim not in (denominator,):
                        self.problems.append(
                            DimProblem(
                                node,
                                f"multiplying a {value_dim} quantity by "
                                f"{_factor_name(factor_node)} "
                                f"({numerator}/{denominator} factor)",
                            )
                        )
                    return numerator
            self.eval(node.left)
            self.eval(node.right)
            return None
        if isinstance(node.op, (ast.Div, ast.FloorDiv)):
            factor = self._conversion_factor(node.right)
            if factor is not None:
                numerator, denominator = factor
                value_dim = self.eval(node.left)
                if value_dim is not None and value_dim != numerator:
                    self.problems.append(
                        DimProblem(
                            node,
                            f"dividing a {value_dim} quantity by "
                            f"{_factor_name(node.right)} "
                            f"({numerator}/{denominator} factor)",
                        )
                    )
                return denominator
            left = self.eval(node.left)
            right = self.eval(node.right)
            if left is not None and left == right:
                return FRACTION  # ticks/ticks is a pure ratio
            return None
        self.eval(node.left)
        self.eval(node.right)
        return None

    def _call(self, node: ast.Call) -> str | None:
        for keyword in node.keywords:
            self._check_keyword(node, keyword)
        func_name = dotted_name(node.func) or ""
        short = func_name.rsplit(".", 1)[-1]
        if short in CONVERTERS:
            expected, result = CONVERTERS[short]
            if node.args:
                got = self.eval(node.args[0])
                if expected is not None and got is not None and got != expected:
                    self.problems.append(
                        DimProblem(
                            node,
                            f"passing a {got} quantity to {short}(), which "
                            f"expects {expected}",
                        )
                    )
                for extra in node.args[1:]:
                    self.eval(extra)
            return result
        if short in PASSTHROUGH_BUILTINS and "." not in func_name:
            dims = [self.eval(arg) for arg in node.args]
            known = [d for d in dims if d is not None]
            if short in ("min", "max") and len(set(known)) > 1:
                self.problems.append(
                    DimProblem(
                        node,
                        f"{short}() over mixed dimensions "
                        f"({', '.join(sorted(set(known)))})",
                    )
                )
            return known[0] if known else None
        # A project function: check arguments against the callee's
        # parameter dimensions and use its return summary.
        resolved = self.index.resolve_call_target(self.fn, node)
        if resolved is not None and resolved[0] == "internal":
            callee = self.index.functions.get(resolved[1])
            if callee is not None:
                self._check_internal_args(node, callee)
                return self.summary(callee.qname)
            for arg in node.args:
                self.eval(arg)
            return None
        for arg in node.args:
            self.eval(arg)
        return dim_of_name(func_name) if func_name else None

    def _check_internal_args(self, node: ast.Call, callee: FunctionInfo) -> None:
        params = callee.params
        for position, arg in enumerate(node.args):
            if isinstance(arg, ast.Starred) or position >= len(params):
                self.eval(arg.value if isinstance(arg, ast.Starred) else arg)
                continue
            got = self.eval(arg)
            expected = dim_of_name(params[position])
            if got is not None and expected is not None and got != expected:
                self.problems.append(
                    DimProblem(
                        arg,
                        f"passing a {got} quantity into {expected} parameter "
                        f"'{params[position]}' of {callee.qname}()",
                        witness=(self.fn.qname, f"{callee.qname}({params[position]}: {expected})"),
                    )
                )
        for keyword in node.keywords:
            if keyword.arg is None or keyword.arg not in params:
                continue
            got = self.eval(keyword.value)
            expected = dim_of_name(keyword.arg)
            if got is not None and expected is not None and got != expected:
                self.problems.append(
                    DimProblem(
                        keyword.value,
                        f"passing a {got} quantity into {expected} parameter "
                        f"'{keyword.arg}' of {callee.qname}()",
                        witness=(self.fn.qname, f"{callee.qname}({keyword.arg}: {expected})"),
                    )
                )

    def _check_keyword(self, call: ast.Call, keyword: ast.keyword) -> None:
        if keyword.arg is None:
            self.eval(keyword.value)
            return
        expected = dim_of_name(keyword.arg)
        got = self.eval(keyword.value)
        if expected is not None and got is not None and got != expected:
            self.problems.append(
                DimProblem(
                    keyword.value,
                    f"binding a {got} quantity to keyword {keyword.arg}= "
                    f"({expected} by name)",
                )
            )

    def _check_pair(
        self,
        node: ast.AST,
        left: str | None,
        right: str | None,
        what: str,
    ) -> None:
        if left is None or right is None or left == right:
            return
        if FRACTION in (left, right):
            return  # scaling by a ratio is legitimate
        self.problems.append(
            DimProblem(node, f"cross-unit {what}: {left} vs {right}")
        )


def _factor_name(node: ast.expr) -> str:
    return (dotted_name(node) or "a conversion factor").rsplit(".", 1)[-1]


def _stmt_exprs(stmt: ast.stmt) -> list[ast.expr]:
    exprs: list[ast.expr] = []
    for attr in ("test", "iter", "subject"):
        value = getattr(stmt, attr, None)
        if isinstance(value, ast.expr):
            exprs.append(value)
    for item in getattr(stmt, "items", []) or []:
        exprs.append(item.context_expr)
    return exprs


def _stmt_bodies(stmt: ast.stmt) -> list[list[ast.stmt]]:
    bodies: list[list[ast.stmt]] = []
    for attr in ("body", "orelse", "finalbody"):
        value = getattr(stmt, attr, None)
        if isinstance(value, list) and value and isinstance(value[0], ast.stmt):
            bodies.append(value)
    for handler in getattr(stmt, "handlers", []) or []:
        bodies.append(handler.body)
    return bodies


class SummaryTable:
    """Memoised per-function return-dimension summaries.

    A function's summary is the dimension of its return expressions,
    evaluated with a problems-discarding interpreter (violations are
    reported once, in the caller-side pass, not per summary request).
    Recursion is cut by answering ``None`` for in-progress functions.
    """

    def __init__(self, index: ProjectIndex) -> None:
        self.index = index
        self._cache: dict[str, str | None] = {}
        self._in_progress: set[str] = set()

    def __call__(self, qname: str) -> str | None:
        if qname in self._cache:
            return self._cache[qname]
        if qname in self._in_progress:
            return None
        fn = self.index.functions.get(qname)
        if fn is None:
            return None
        self._in_progress.add(qname)
        try:
            interp = DimInterpreter(fn, self.index, self)
            interp.run()
            dims = set()
            for node in _returns(fn.node):
                if node.value is not None:
                    dim = interp.eval(node.value)
                    if dim is not None:
                        dims.add(dim)
            # Name of the function itself can promise a dimension
            # (``..._to_ticks`` helpers in scenario code).
            name_dim = dim_of_name(fn.name)
            result = dims.pop() if len(dims) == 1 else name_dim
        finally:
            self._in_progress.discard(qname)
        self._cache[qname] = result
        return result


def _returns(func: ast.AST) -> list[ast.Return]:
    """Return statements of a function, nested defs excluded."""
    out: list[ast.Return] = []
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Return):
            out.append(node)
        stack.extend(ast.iter_child_nodes(node))
    return out
