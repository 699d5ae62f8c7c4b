"""Flow rule: the determinism contract as one scope table (``determinism``)."""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

from repro.lint.flow.callgraph import CallGraph, CallSite
from repro.lint.flow.index import ProjectIndex
from repro.lint.rules.base import LintViolation, ModuleInfo, Rule

#: Wall-clock reads that have no place inside a discrete-event simulator.
WALLCLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "date.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.date.today",
    }
)

#: ``random`` module-level functions draw from the hidden global Mersenne
#: Twister, whose state no seed in this library controls;
#: ``SystemRandom`` draws from OS entropy whatever it is passed.
GLOBAL_RNG_CALLS = frozenset(
    f"random.{name}"
    for name in (
        "random",
        "randint",
        "randrange",
        "choice",
        "choices",
        "uniform",
        "shuffle",
        "sample",
        "gauss",
        "normalvariate",
        "lognormvariate",
        "expovariate",
        "betavariate",
        "gammavariate",
        "triangular",
        "vonmisesvariate",
        "paretovariate",
        "weibullvariate",
        "getrandbits",
        "seed",
        "SystemRandom",
    )
)

#: Constructors that are deterministic given a seed: a sink only when
#: called without one (``Random()``, ``Random(None)``, ``Random(x=None)``).
SEEDABLE = frozenset({"random.Random"})


@dataclass(frozen=True)
class Contract:
    """One row of the scope table: a kind of sink and who must not reach it."""

    kind: str
    sinks: frozenset[str]
    #: Packages whose code must not reach a sink of this kind.
    packages: tuple[str, ...]
    #: The one sanctioned funnel, a module or package inside ``packages``.
    exempt: str
    advice: str

    def within(self, module: str) -> bool:
        return any(_in_package(module, p) for p in self.packages)

    def covers(self, module: str) -> bool:
        return self.within(module) and not _in_package(module, self.exempt)

    def sink(self, site: CallSite) -> str | None:
        """The sink ``site`` calls, as a dotted name, or ``None``."""
        if not site.callee.startswith("ext:"):
            return None  # a project function
        name = site.callee.removeprefix("ext:")
        if name not in self.sinks or (name in SEEDABLE and not _unseeded(site.node)):
            return None
        return name


SCOPE_TABLE = (
    Contract(
        kind="wall-clock read",
        sinks=WALLCLOCK_CALLS,
        # Not repro.fuzz: fuzz --time-budget reads the host
        # clock on purpose, and no generated scenario depends on it.
        packages=("repro.core", "repro.sim", "repro.obs", "repro.cluster"),
        # The phase profiler measures host cost; its timings land in
        # prof_times.json, which is never byte-compared.
        exempt="repro.obs.prof",
        advice="use the simulated clock (kernel.now / SimClock)",
    ),
    Contract(
        kind="global or unseeded RNG",
        sinks=GLOBAL_RNG_CALLS | SEEDABLE,
        packages=("repro.core", "repro.sim", "repro.obs", "repro.cluster", "repro.fuzz"),
        # The seeded stream registry wraps the random module itself.
        exempt="repro.sim.rng",
        advice="draw from a seeded sim.rng stream or pass an explicit seed",
    ),
)


class DeterminismRule(Rule):
    """Flag every wall-clock read and unseeded RNG draw the simulation reaches.

    Every run of the simulator must be exactly reproducible from its
    seed (``SimConfig.seed``): the golden artifact digests, the fuzz
    corpus and the property tests all depend on it.  One scope table
    (:data:`SCOPE_TABLE`) states the contract:

    ============================  ==========================  =================
    sink                          packages that must not      sanctioned funnel
                                  reach it
    ============================  ==========================  =================
    wall-clock read               core, sim, obs, cluster     ``repro.obs.prof``
    global or unseeded RNG        core, sim, obs, cluster,    ``repro.sim.rng``
                                  fuzz
    ============================  ==========================  =================

    A finding lands on the call site inside a covered package, whether
    the sink is called right there (a witness of one call) or at the end
    of a chain through helpers outside the packages (``a.f -> b.g ->
    time.time``).  A chain through another covered function is reported
    at that function instead, so one bug gives one finding.  Calls at
    module level and in class bodies count; ``from random import
    choice`` is reported at the import, and calls through the imported
    name are not reported again.  ``random.Random()`` and
    ``random.Random(None)`` are sinks, ``random.Random(seed)`` is not.
    """

    id = "determinism"
    rationale = (
        "core/sim/obs/cluster never reach the host wall clock and "
        "core/sim/obs/cluster/fuzz never reach a global or unseeded RNG, "
        "through any call chain (reproducibility from the seed)"
    )

    def check_project(self, index: ProjectIndex) -> Iterator[LintViolation]:
        graph = CallGraph(index)
        for row in SCOPE_TABLE:
            yield from self._imports(row, index)
            yield from self._calls(row, index, graph)

    def _imports(self, row: Contract, index: ProjectIndex) -> Iterator[LintViolation]:
        for table in index.tables.values():
            if not row.covers(table.module):
                continue
            for node in ast.walk(table.info.tree):
                if not isinstance(node, ast.ImportFrom) or node.level:
                    continue
                for alias in node.names:
                    name = f"{node.module}.{alias.name}"
                    if name in row.sinks and name not in SEEDABLE:
                        yield self._report(row, table.info, node, (table.module, name))

    def _calls(
        self, row: Contract, index: ProjectIndex, graph: CallGraph
    ) -> Iterator[LintViolation]:
        def checked_elsewhere(key: str) -> bool:
            # A covered function reports its own sinks; the funnel is trusted.
            fn = index.functions.get(key)
            return fn is not None and row.within(fn.module)

        reach: dict[str, list[str] | None] = {}
        for caller in graph.callers:
            if not row.covers(caller.module):
                continue
            info = index.tables[caller.module].info
            for site in graph.callees(caller.qname):
                sink = row.sink(site)
                if sink is not None:
                    if isinstance(site.node.func, ast.Name) and sink not in SEEDABLE:
                        continue  # its ``from`` import carries the finding
                    path: list[str] = [sink]
                elif site.callee in index.functions and not checked_elsewhere(site.callee):
                    if site.callee not in reach:
                        reach[site.callee] = graph.reaches(
                            site.callee,
                            lambda s: row.sink(s) is not None,
                            skip=checked_elsewhere,
                        )
                    found = reach[site.callee]
                    if found is None:
                        continue
                    path = [*found[:-1], found[-1].removeprefix("ext:")]
                else:
                    continue
                yield self._report(row, info, site.node, (caller.qname, *path))

    def _report(
        self, row: Contract, info: ModuleInfo, node: ast.AST, witness: tuple[str, ...]
    ) -> LintViolation:
        origin, sink, calls = witness[0], witness[-1], len(witness) - 1
        if isinstance(node, ast.ImportFrom):
            where = f"imported by name into {origin}"
        elif calls == 1:
            where = f"in {origin}"
        else:
            where = f"is reachable from {origin} ({calls} call(s) away)"
        return self.violation(
            info, node, f"{row.kind} {sink}() {where}; {row.advice}", witness
        )


def _in_package(module: str, prefix: str) -> bool:
    return module == prefix or module.startswith(prefix + ".")


def _unseeded(call: ast.Call) -> bool:
    """Does this ``Random(...)`` call leave the seed to OS entropy?"""
    args = [*call.args, *(kw.value for kw in call.keywords)]
    return not args or (
        len(args) == 1 and isinstance(args[0], ast.Constant) and args[0].value is None
    )
