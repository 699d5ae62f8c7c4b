"""The bench registry: named wall-clock workloads grouped into suites.

A :class:`Bench` is a zero-argument callable plus the metadata the
runner needs to report it: which suite it belongs to, how many logical
operations one call performs (for ops/s), and a one-line description.
Workload *construction* lives in :mod:`repro.bench.workloads` so the
pytest benches under ``benchmarks/`` can exercise the exact same
scenarios; this module only names and groups them.

Registration happens at import time via the :func:`register` decorator,
so ``benches_for("core")`` is always the full suite — there is no
discovery step to forget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.bench import workloads

#: Suite names accepted by ``python -m repro bench --suite``.
SUITES = ("core", "cluster", "obs", "serve", "fuzz")

REGISTRY: dict[str, "Bench"] = {}


@dataclass(frozen=True)
class Bench:
    """One registered benchmark: a callable and its reporting metadata."""

    name: str
    suite: str
    #: Logical operations one ``run()`` performs (simulated milliseconds
    #: for scenario benches, computations for micro benches) — the
    #: numerator of the reported ops/s.
    ops: int
    run: Callable[[], object]
    description: str = ""


def register(
    name: str, suite: str, ops: int, description: str = ""
) -> Callable[[Callable[[], object]], Callable[[], object]]:
    """Decorator: add a zero-argument workload to the registry."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; pick one of {SUITES}")

    def wrap(fn: Callable[[], object]) -> Callable[[], object]:
        if name in REGISTRY:
            raise ValueError(f"bench {name!r} registered twice")
        REGISTRY[name] = Bench(
            name=name, suite=suite, ops=ops, run=fn, description=description
        )
        return fn

    return wrap


def benches_for(suite: str) -> list[Bench]:
    """Every bench in ``suite``, in registration (= definition) order."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; pick one of {SUITES}")
    return [b for b in REGISTRY.values() if b.suite == suite]


# -- core: kernel + scheduler + grant control -------------------------------


@register(
    "core.av_pipeline",
    "core",
    ops=500,
    description="MPEG+AC3+data A/V scenario, 500 simulated ms (kernel hot loop)",
)
def _core_av_pipeline() -> object:
    return workloads.run_av_scenario(seconds=0.5, seed=61)


@register(
    "core.settop",
    "core",
    ops=400,
    description="section 5.3 set-top box, 400 simulated ms (mixed task classes)",
)
def _core_settop() -> object:
    return workloads.run_settop(ms=400, seed=53)


@register(
    "core.grant_underload",
    "core",
    ops=200,
    description="200 grant-set computations, N=64 threads, underload fast path",
)
def _core_grant_underload() -> object:
    return workloads.run_grant_computations(n=64, overload=False, iterations=200)


@register(
    "core.grant_overload",
    "core",
    ops=40,
    description="40 grant-set computations, N=64 threads, overloaded (policy passes)",
)
def _core_grant_overload() -> object:
    return workloads.run_grant_computations(n=64, overload=True, iterations=40)


@register(
    "core.admission_burst",
    "core",
    ops=256,
    description="8 bursts admitting 32 tasks one by one (a recompute per admission)",
)
def _core_admission_burst() -> object:
    rd = None
    for _ in range(8):
        rd = workloads.run_admission_burst(count=32, batched=False)
    return rd


@register(
    "core.admission_burst_batched",
    "core",
    ops=256,
    description="8 bursts admitting 32 tasks via admit_many (one coalesced recompute)",
)
def _core_admission_burst_batched() -> object:
    rd = None
    for _ in range(8):
        rd = workloads.run_admission_burst(count=32, batched=True)
    return rd


# -- cluster: broker + nodes + message bus ----------------------------------


@register(
    "cluster.rack",
    "cluster",
    ops=400,
    description="4-node set-top rack behind the broker, 400 simulated ms",
)
def _cluster_rack() -> object:
    return workloads.run_cluster_rack(seed=7, nodes=4, horizon_sec=0.4)


# -- obs: instrumentation overhead ------------------------------------------


@register(
    "obs.disabled",
    "obs",
    ops=200,
    description="figure5 load shedding, 200 simulated ms, obs=None",
)
def _obs_disabled() -> object:
    return workloads.run_figure5(obs="disabled", ms=200, seed=11)


@register(
    "obs.no_sink",
    "obs",
    ops=200,
    description="figure5, 200 simulated ms, ObsBus attached with no subscribers",
)
def _obs_no_sink() -> object:
    return workloads.run_figure5(obs="no-sink", ms=200, seed=11)


@register(
    "obs.session",
    "obs",
    ops=200,
    description="figure5, 200 simulated ms, full ObsSession (columnar arenas)",
)
def _obs_session() -> object:
    return workloads.run_figure5(obs="session", ms=200, seed=11)


@register(
    "obs.pipeline_overhead",
    "obs",
    ops=30,
    description="30k hot-site events emitted into an ObsSession's columnar "
    "arena bus — the recorder's per-event cost",
)
def _obs_pipeline_overhead() -> object:
    return workloads.run_obs_emit(events=30000)


@register(
    "obs.prof_overhead",
    "obs",
    ops=200,
    description="figure5, 200 simulated ms, obs=None but every phase-profiler "
    "hook live (the instrumenting tier's full cost)",
)
def _obs_prof_overhead() -> object:
    return workloads.run_figure5(obs="disabled", ms=200, seed=11, prof=True)


@register(
    "obs.analysis",
    "obs",
    ops=5,
    description="5 offline analysis passes (timelines + attribution + episodes) "
    "over a captured figure5 event stream",
)
def _obs_analysis() -> object:
    events = workloads.build_analysis_events(ms=200, seed=11)
    return workloads.run_obs_analysis(events, iterations=5)


# -- serve: the live control plane's in-process mutation path ---------------


@register(
    "serve.engine_ops",
    "serve",
    ops=400,
    description="400 settled submit/read/withdraw cycles through the serving "
    "engine (the per-request cost floor under /v1/tasks)",
)
def _serve_engine_ops() -> object:
    return workloads.run_serve_ops(ops=400, seed=5, nodes=4)


@register(
    "serve.profiled_settle",
    "serve",
    ops=400,
    description="the same 400 settled cycles with phase hooks live from the "
    "engine down through the broker and kernels",
)
def _serve_profiled_settle() -> object:
    return workloads.run_serve_ops(ops=400, seed=5, nodes=4, profiled=True)


# -- fuzz: the scenario-fuzzing pipeline ------------------------------------


@register(
    "fuzz.campaign",
    "fuzz",
    ops=10,
    description="10 generated scenarios run under the strict sanitizer "
    "(the fuzz driver's per-scenario cost, no shrinking)",
)
def _fuzz_campaign() -> object:
    return workloads.run_fuzz_campaign(budget=10, seed=17)


@register(
    "fuzz.trace_round_trip",
    "fuzz",
    ops=20,
    description="20 canonical-JSON serialize/parse round trips of one "
    "generated spec (the corpus loader's per-file cost)",
)
def _fuzz_trace_round_trip() -> object:
    return workloads.run_fuzz_replay(iterations=20, seed=17)
