"""Project index: per-module symbol tables and name resolution.

The index is the substrate every whole-program rule shares.  It is
built once per lint run from the already-parsed :class:`ModuleInfo`
objects (the engine never parses a file twice) and answers the
questions a single module cannot:

* what does the *name* ``f`` (or ``self.bus.send``, or ``u.ms_to_ticks``)
  refer to at this call site, after imports, aliases, and ``self``
  attribute types are taken into account?
* which function *symbol* encloses this AST node?

Resolution is deliberately conservative: a name the index cannot pin
down resolves to ``None`` and the rules stay silent about it.
Lint findings must be cheap to trust — precision beats recall.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro.lint.rules.base import ModuleInfo, dotted_name, relative_base

__all__ = [
    "ClassInfo",
    "FunctionInfo",
    "ModuleResolver",
    "ModuleTable",
    "ProjectIndex",
]

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


class ModuleResolver:
    """Resolve names inside ONE module through its import aliases."""

    def __init__(self, module: ModuleInfo) -> None:
        #: Local alias -> imported dotted target (``rnd`` -> ``random``,
        #: ``monotonic`` -> ``time.monotonic``).
        self.imports: dict[str, str] = {}
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self.imports[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = relative_base(module, node.level, node.module)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    self.imports[alias.asname or alias.name] = f"{base}.{alias.name}"

    def canonical(self, name: str) -> str:
        """Expand the leading alias of a dotted name, if any."""
        head, _, rest = name.partition(".")
        target = self.imports.get(head)
        if target is None:
            return name
        return f"{target}.{rest}" if rest else target


@dataclass
class FunctionInfo:
    """One function or method, located by its fully qualified name.

    The call graph also gives each module's top-level code one entry,
    ``<module>.<module>``, whose ``node`` is the module itself.
    """

    qname: str
    module: str
    node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Module
    #: Simple name of the enclosing class, ``None`` for module level.
    class_name: str | None = None

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def params(self) -> list[str]:
        args = self.node.args
        names = [a.arg for a in (*args.posonlyargs, *args.args)]
        if self.class_name and names and names[0] in ("self", "cls"):
            names = names[1:]
        return names

    def param_annotations(self) -> dict[str, str]:
        """Parameter name -> annotation rendered as a dotted name."""
        out: dict[str, str] = {}
        if isinstance(self.node, ast.Module):
            return out
        args = self.node.args
        for a in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            if a.annotation is not None:
                name = dotted_name(a.annotation)
                if name:
                    out[a.arg] = name
        return out


@dataclass
class ClassInfo:
    """One class: its methods, bases, and inferred ``self.attr`` types."""

    qname: str
    module: str
    node: ast.ClassDef
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    #: Base classes as written in source (dotted names, unresolved).
    bases: tuple[str, ...] = ()
    #: ``self.<attr>`` -> dotted type name as written at the assignment
    #: (``MessageBus``, ``module.Cls``) — resolved lazily by the index.
    attr_types: dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleTable:
    """Symbol table for one module."""

    info: ModuleInfo
    resolver: ModuleResolver
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)

    @property
    def module(self) -> str:
        return self.info.module


def _build_table(info: ModuleInfo) -> ModuleTable:
    table = ModuleTable(info=info, resolver=ModuleResolver(info))
    for stmt in info.tree.body:
        if isinstance(stmt, _FUNC_NODES):
            qname = f"{info.module}.{stmt.name}"
            table.functions[stmt.name] = FunctionInfo(qname, info.module, stmt)
        elif isinstance(stmt, ast.ClassDef):
            cls = ClassInfo(
                qname=f"{info.module}.{stmt.name}",
                module=info.module,
                node=stmt,
                bases=tuple(n for n in (dotted_name(b) for b in stmt.bases) if n),
            )
            for sub in stmt.body:
                if isinstance(sub, _FUNC_NODES):
                    fn = FunctionInfo(
                        f"{cls.qname}.{sub.name}", info.module, sub, stmt.name
                    )
                    cls.methods[sub.name] = fn
            _infer_attr_types(cls)
            table.classes[stmt.name] = cls
    return table


def _infer_attr_types(cls: ClassInfo) -> None:
    """Fill ``attr_types`` from ``self.x = Type(...)`` / ``self.x = param``."""
    for method in cls.methods.values():
        annotations = method.param_annotations()
        for node in ast.walk(method.node):
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                typ: str | None = None
                if isinstance(node, ast.AnnAssign) and node.annotation is not None:
                    typ = dotted_name(node.annotation)
                value = node.value
                if typ is None and isinstance(value, ast.Call):
                    name = dotted_name(value.func)
                    if name and name.rsplit(".", 1)[-1][:1].isupper():
                        typ = name
                if typ is None and isinstance(value, ast.Name):
                    typ = annotations.get(value.id)
                if typ is not None:
                    cls.attr_types.setdefault(target.attr, typ)


class ProjectIndex:
    """All modules of one lint run, cross-linked for resolution."""

    def __init__(self, modules: list[ModuleInfo]) -> None:
        self.tables: dict[str, ModuleTable] = {}
        for info in modules:
            self.tables[info.module] = _build_table(info)
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        for table in self.tables.values():
            for fn in table.functions.values():
                self.functions[fn.qname] = fn
            for cls in table.classes.values():
                self.classes[cls.qname] = cls
                for fn in cls.methods.values():
                    self.functions[fn.qname] = fn

    # -- lookup -------------------------------------------------------------

    def table(self, module: str) -> ModuleTable | None:
        return self.tables.get(module)

    def resolver(self, module: str) -> ModuleResolver | None:
        table = self.tables.get(module)
        return table.resolver if table else None

    def iter_functions(self) -> Iterator[FunctionInfo]:
        for table in self.tables.values():
            yield from table.functions.values()
            for cls in table.classes.values():
                yield from cls.methods.values()

    # -- resolution ---------------------------------------------------------

    def resolve_class(self, module: str, name: str) -> ClassInfo | None:
        """Resolve a dotted type name written in ``module`` to a class."""
        qname = self.resolve_name(module, name)
        if qname is None:
            return None
        return self.classes.get(qname)

    def resolve_name(self, module: str, name: str) -> str | None:
        """Resolve a dotted name written in ``module`` to a project qname.

        Returns the qualified name of a function, class, or method
        defined in the indexed tree, or ``None`` for anything external
        or unresolvable.
        """
        table = self.tables.get(module)
        if table is None:
            return None
        head, _, rest = name.partition(".")
        # Locally defined symbol?
        if head in table.functions and not rest:
            return table.functions[head].qname
        if head in table.classes:
            cls = table.classes[head]
            if not rest:
                return cls.qname
            method = cls.methods.get(rest)
            return method.qname if method else None
        # Through an import alias.
        return self._resolve_canonical(table.resolver.canonical(name))

    def _resolve_canonical(self, dotted: str) -> str | None:
        """Map an absolute dotted name onto an indexed symbol."""
        if dotted in self.functions or dotted in self.classes:
            return dotted
        # Longest module prefix, then walk the remainder through the
        # table (handles ``pkg.mod.Class.method`` and one level of
        # ``pkg/__init__`` re-export).
        parts = dotted.split(".")
        for split in range(len(parts) - 1, 0, -1):
            mod = ".".join(parts[:split])
            table = self.tables.get(mod)
            if table is None:
                continue
            rest = parts[split:]
            if rest[0] in table.functions and len(rest) == 1:
                return table.functions[rest[0]].qname
            if rest[0] in table.classes:
                cls = table.classes[rest[0]]
                if len(rest) == 1:
                    return cls.qname
                if len(rest) == 2 and rest[1] in cls.methods:
                    return cls.methods[rest[1]].qname
                return None
            # Re-export: ``from pkg.mod import name`` in pkg/__init__.
            alias = table.resolver.imports.get(rest[0])
            if alias is not None:
                return self._resolve_canonical(".".join([alias, *rest[1:]]))
            return None
        return None

    def resolve_call_target(
        self, fn: FunctionInfo, call: ast.Call
    ) -> tuple[str, str] | None:
        """Resolve a call inside ``fn`` to its target.

        Returns ``("internal", qname)`` for a project symbol,
        ``("external", dotted)`` for an import-resolved external name,
        or ``None`` when the target cannot be named at all.
        """
        name = dotted_name(call.func)
        if name is None:
            return None
        head, _, rest = name.partition(".")
        if head == "self" and fn.class_name is not None:
            cls = self.classes.get(f"{fn.module}.{fn.class_name}")
            if cls is None:
                return None
            target = self._resolve_self(cls, rest)
            return ("internal", target) if target else None
        # A parameter with a class annotation: ``bus.send`` where
        # ``bus: MessageBus`` resolves through the annotation.
        if rest:
            annotations = fn.param_annotations()
            if head in annotations:
                cls = self.resolve_class(fn.module, annotations[head])
                if cls is not None:
                    method = self._method_in(cls, rest)
                    return ("internal", method.qname) if method else None
        qname = self.resolve_name(fn.module, name)
        if qname is not None:
            # A bare class call is its constructor.
            cls = self.classes.get(qname)
            if cls is not None:
                init = cls.methods.get("__init__")
                return ("internal", init.qname if init else cls.qname)
            return ("internal", qname)
        resolver = self.resolver(fn.module)
        if resolver is None or head not in resolver.imports:
            # A name not rooted in an import is a local variable or a
            # builtin — stay silent rather than invent a sink.
            return None
        canonical = resolver.canonical(name)
        if canonical.partition(".")[0] in self.tables or canonical in self.tables:
            return None  # project module but unresolvable symbol
        return ("external", canonical)

    def _resolve_self(self, cls: ClassInfo, rest: str) -> str | None:
        """Resolve ``self.<rest>`` within ``cls`` (methods and typed attrs)."""
        if not rest:
            return None
        first, _, tail = rest.partition(".")
        if not tail:
            method = self._method_in(cls, first)
            return method.qname if method else None
        attr_type = cls.attr_types.get(first)
        if attr_type is None:
            return None
        attr_cls = self.resolve_class(cls.module, attr_type)
        if attr_cls is None:
            return None
        method = self._method_in(attr_cls, tail)
        return method.qname if method else None

    def _method_in(self, cls: ClassInfo, name: str) -> FunctionInfo | None:
        """Method lookup through the (resolvable) MRO."""
        seen: set[str] = set()
        stack = [cls]
        while stack:
            current = stack.pop(0)
            if current.qname in seen:
                continue
            seen.add(current.qname)
            if name in current.methods:
                return current.methods[name]
            for base in current.bases:
                base_cls = self.resolve_class(current.module, base)
                if base_cls is not None:
                    stack.append(base_cls)
        return None
