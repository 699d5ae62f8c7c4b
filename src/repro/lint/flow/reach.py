"""Flow rule: interprocedural determinism reachability
(``determinism-reach``)."""

from __future__ import annotations

from typing import Iterator

from repro.lint.flow.callgraph import CallGraph, ext
from repro.lint.flow.index import ProjectIndex
from repro.lint.rules.base import LintViolation, Rule
from repro.lint.rules.determinism import GLOBAL_RANDOM_FUNCS, WALLCLOCK_CALLS

#: Packages whose code must stay deterministic (the direct rules'
#: scope plus the cluster layer, which shares the lockstep contract).
SCOPE_PREFIXES = ("repro.core", "repro.sim", "repro.cluster")

#: Modules exempt as sanctioned funnels (mirrors the direct rules).
EXEMPT_MODULES = frozenset({"repro.sim.rng"})


def _sink_keys() -> set[str]:
    sinks = {ext(name) for name in WALLCLOCK_CALLS}
    sinks.update(ext(f"random.{fn}") for fn in GLOBAL_RANDOM_FUNCS)
    return sinks


def _in_scope(module: str) -> bool:
    return any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in SCOPE_PREFIXES
    )


class DeterminismReachRule(Rule):
    """Flag non-determinism *reachable* from the simulation core.

    The direct ``wallclock`` / ``unseeded-rng`` rules catch a
    ``time.time()`` written inside ``repro.core``; they are blind to a
    helper one module over — ``repro.core`` calls
    ``repro.workloads.jitter()`` which calls ``time.monotonic()`` and
    the determinism contract is broken with no diagnostic.  This rule
    walks the resolved call graph from every function defined in
    ``repro.sim`` / ``repro.core`` / ``repro.cluster`` and reports any
    path that ends in a wall-clock read or a global-RNG draw, with the
    path witness (``a.f -> b.g -> time.time``) in the diagnostic.

    Sink calls *directly inside* the scoped packages are left to the
    direct rules (one finding per bug, stable rule ids); this rule
    only reports paths whose sink call lives outside them.
    """

    id = "determinism-reach"
    rationale = (
        "wallclock/global-RNG sinks reachable from sim/core/cluster "
        "through any call chain break seed-reproducibility; the direct "
        "rules only see same-module calls (interprocedural determinism)"
    )

    def check_project(self, index: ProjectIndex) -> Iterator[LintViolation]:
        graph = CallGraph(index)
        sinks = _sink_keys()
        seen: set[tuple[str, int, str]] = set()
        for fn in index.iter_functions():
            if not _in_scope(fn.module) or fn.module in EXEMPT_MODULES:
                continue
            # Examine each outgoing call edge into a function that can
            # reach a sink, so the diagnostic lands on the call site
            # the author can actually fix.
            for site in graph.callees(fn.qname):
                callee = site.callee
                if callee in sinks:
                    continue  # a direct sink call: the direct rules own it
                target_fn = index.functions.get(callee)
                if target_fn is None:
                    continue
                if _in_scope(target_fn.module) and target_fn.module not in EXEMPT_MODULES:
                    # The callee is itself checked; report at the
                    # deepest in-scope frame to avoid one bug fanning
                    # out into a violation per transitive caller.
                    continue
                if target_fn.module in EXEMPT_MODULES:
                    continue
                path = graph.reaches(
                    callee, sinks, skip=lambda key: _is_exempt(index, key)
                )
                if path is None:
                    continue
                key = (fn.qname, site.line, path[-1])
                if key in seen:
                    continue
                seen.add(key)
                sink_name = path[-1].removeprefix("ext:")
                witness = (fn.qname, *path[:-1], sink_name)
                yield self.violation(
                    index.tables[fn.module].info,
                    _node_at(site.line, site.col),
                    f"{sink_name}() is reachable from {fn.qname}() "
                    f"({len(witness) - 1} call(s) away); the simulation "
                    f"core must stay deterministic from the seed",
                    witness=witness,
                )


def _is_exempt(index: ProjectIndex, key: str) -> bool:
    fn = index.functions.get(key)
    return fn is not None and fn.module in EXEMPT_MODULES


def _node_at(line: int, col: int):
    """A location-carrying stand-in node for the violation site."""

    class _Loc:
        lineno = line
        col_offset = col

    return _Loc()
