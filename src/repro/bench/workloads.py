"""Shared workload builders for the bench registry and the pytest benches.

Every builder here constructs a deterministic, seeded scenario and (for
the ``run_*`` variants) drives it to completion, returning the system so
callers can assert on its final state.  ``benchmarks/bench_*.py`` import
the builders to keep the pytest benches and the ``repro bench`` runner
measuring the *same* workloads — one definition, two harnesses.
"""

from __future__ import annotations

from repro import units
from repro.config import MachineConfig, SimConfig
from repro.core.distributor import ResourceDistributor
from repro.core.grant_control import GrantController, GrantRequest
from repro.core.policy_box import PolicyBox
from repro.core.resource_list import ResourceList, ResourceListEntry
from repro.core.sporadic import SporadicServer
from repro.tasks.base import TaskDefinition
from repro.workloads import grant_follower, single_entry_definition

# -- section 6.1: the A/V pipeline ------------------------------------------


def build_av_scenario(seed: int = 61) -> ResourceDistributor:
    """MPEG + AC3 + the two fixed data-management threads + a greedy
    Sporadic Server — the paper's §6.1 context-switch-cost scenario."""
    from repro.tasks.ac3 import Ac3Decoder
    from repro.tasks.mpeg import MpegDecoder
    from repro.tasks.producer_consumer import Figure4Workload

    rd = ResourceDistributor(machine=MachineConfig(), sim=SimConfig(seed=seed))
    SporadicServer(rd, greedy=True)
    rd.admit(MpegDecoder().definition())
    rd.admit(Ac3Decoder().definition())
    workload = Figure4Workload(fixed=True)
    defs = workload.definitions()
    rd.admit(defs[1])
    rd.admit(defs[3])
    return rd


def run_av_scenario(seconds: float = 2.0, seed: int = 61) -> ResourceDistributor:
    rd = build_av_scenario(seed=seed)
    rd.run_for(units.sec_to_ticks(seconds))
    return rd


# -- section 6.3: grant-set computation -------------------------------------


def sheddable_list(n: int) -> ResourceList:
    """Maxima of 90 % (heavy overload at any N) with minima small
    enough that N of them stay jointly admissible."""
    period = units.ms_to_ticks(10)
    rates = [0.9, 0.45, 0.2, 0.05, 0.3 / (2 * n)]
    entries = [
        ResourceListEntry(period, max(1, round(period * r)), grant_follower)
        for r in rates
        if round(period * r) >= 1
    ]
    return ResourceList(entries)


def build_grant_requests(
    n: int, overload: bool
) -> tuple[GrantController, list[GrantRequest]]:
    """A grant controller plus N requests, in the under- or overload regime."""
    box = PolicyBox(capacity=0.96)
    requests = []
    for i in range(n):
        if overload:
            rl = sheddable_list(n)
        else:
            rl = single_entry_definition(f"t{i}", 10, 0.9 / n).resource_list
        requests.append(
            GrantRequest(
                thread_id=i,
                policy_id=box.register_task(f"t{i}"),
                resource_list=rl,
            )
        )
    return GrantController(0.96, box), requests


def run_grant_computations(n: int, overload: bool, iterations: int):
    """Recompute the same N-thread grant set ``iterations`` times."""
    controller, requests = build_grant_requests(n, overload)
    result = None
    for _ in range(iterations):
        result = controller.compute(requests)
    return result


def build_overloaded_distributor(n: int) -> tuple[ResourceDistributor, list[int]]:
    """A distributor held in permanent overload by ``n`` sheddable
    tasks, plus their thread ids oldest first — the §6.2/§6.3 cost as an
    application pays it: every RM op on it takes the policy path."""
    rd = ResourceDistributor(machine=MachineConfig.ideal(), sim=SimConfig(seed=0))
    threads = rd.admit_many(
        [
            TaskDefinition(name=f"t{i}", resource_list=sheddable_list(n))
            for i in range(n)
        ]
    )
    return rd, [thread.tid for thread in threads]


def swap_oldest_task(
    rd: ResourceDistributor, tids: list[int], definition: TaskDefinition
) -> None:
    """One ``exit_thread`` + ``admit`` pair: the oldest task leaves,
    ``definition`` joins, and the population stays at N."""
    rd.exit_thread(tids.pop(0))
    tids.append(rd.admit(definition).tid)


# -- admission bursts --------------------------------------------------------


def run_admission_burst(count: int, batched: bool) -> ResourceDistributor:
    """Admit ``count`` small periodic tasks into a fresh distributor —
    one grant recompute per admission sequentially, or one coalesced
    recompute via :meth:`ResourceDistributor.admit_many`."""
    rd = ResourceDistributor(machine=MachineConfig.ideal(), sim=SimConfig(seed=0))
    definitions = [
        single_entry_definition(f"burst{i}", 10 + (i % 7), 0.9 / count)
        for i in range(count)
    ]
    if batched:
        rd.admit_many(definitions)
    else:
        for definition in definitions:
            rd.admit(definition)
    return rd


# -- named scenarios ---------------------------------------------------------


def run_settop(ms: float = 400, seed: int = 53):
    """The section 5.3 set-top box (DVD A/V + teleconference + modem)."""
    from repro.scenarios import settop

    return settop(seed=seed).run_for(units.ms_to_ticks(ms))


def run_figure5(
    obs: str = "disabled", ms: float = 400, seed: int = 11, prof: bool = False
):
    """The Figure 5 load-shedding staircase under one of three
    instrumentation configurations: ``disabled`` (obs=None), ``no-sink``
    (an ObsBus with zero subscribers), or ``session`` (a full
    ObsSession recording into its arenas).  ``prof=True`` additionally
    wires a
    :class:`~repro.obs.prof.phases.PhaseProfiler` into every hook
    slot, for the profiler-overhead bench."""
    from repro.obs.events import ObsBus
    from repro.obs.session import ObsSession
    from repro.scenarios import figure5

    bus = {
        "disabled": lambda: None,
        "no-sink": ObsBus,
        "session": ObsSession,
    }[obs]()
    scenario = figure5(seed=seed, obs=bus)
    if prof:
        from repro.obs.prof import PhaseProfiler

        scenario.rd.attach_prof(PhaseProfiler())
    return scenario.run_for(units.ms_to_ticks(ms))


def run_obs_emit(events: int = 30000):
    """Per-event emission cost, isolated from scenario control flow.

    Drives the kernel's exact hot-site mix (switch-heavy, with
    period closes and activations sprinkled in) straight into an
    :class:`~repro.obs.session.ObsSession`'s arena bus."""
    from repro.obs.session import ObsSession

    session = ObsSession()
    bus = session.bus
    for i in range(events):
        slot = i % 16
        if slot == 14:
            bus.emit_period_close(
                i * 27, slot, i >> 4, i * 27 - 270, i * 27 - 27, 270, 270,
                False, False,
            )
        elif slot == 15:
            bus.emit_activation(i * 27, 2)
        else:
            bus.emit_switch(i * 27, slot, (slot + 1) & 7, "voluntary", 54)
    return session


def run_cluster_rack(seed: int = 7, nodes: int = 4, horizon_sec: float = 0.4):
    """The multi-node set-top rack behind the admission broker."""
    from repro.scenarios import cluster_rack

    sim = cluster_rack(seed=seed, nodes=nodes, horizon_sec=horizon_sec)
    sim.run_until(sim.horizon)
    return sim


def build_analysis_events(ms: float = 400, seed: int = 11):
    """A captured event stream for the offline-analysis bench: the
    Figure 5 staircase under a full ObsSession."""
    from repro.obs.session import ObsSession
    from repro.scenarios import figure5

    session = ObsSession()
    figure5(seed=seed, obs=session).run_for(units.ms_to_ticks(ms))
    return session.events


def run_obs_analysis(events, iterations: int = 5):
    """Run the full offline pipeline (timelines, attribution, episodes,
    overheads) over a pre-captured event stream ``iterations`` times."""
    from repro.obs.analysis import analyze

    result = None
    for _ in range(iterations):
        result = analyze(events)
    return result


def run_serve_ops(
    ops: int = 400, seed: int = 5, nodes: int = 4, profiled: bool = False
):
    """The serving engine's mutation path, no sockets: ``ops`` cycles of
    submit -> read -> withdraw against a live :class:`ServeEngine`, each
    settled through the broker before the next begins — the in-process
    cost floor under every ``/v1/tasks`` request.  ``profiled=True``
    runs the same cycles with phase hooks live end to end."""
    from repro.serve.engine import ServeEngine

    prof = None
    if profiled:
        from repro.obs.prof import PhaseProfiler

        prof = PhaseProfiler()
    engine = ServeEngine(nodes=nodes, seed=seed, prof=prof)
    for i in range(ops):
        name = f"bench-{i:05d}"
        engine.submit({"name": name, "period_ms": 2.0, "rate": 0.00002})
        engine.task(name)
        engine.remove(name)
    return engine


def run_fuzz_campaign(budget: int = 10, seed: int = 17):
    """A seeded fuzz campaign, no shrinking and no disk: generate
    ``budget`` scenarios and run each under the strict sanitizer — the
    generate→materialize→check loop whose wall-clock cost bounds how
    many scenarios a CI time budget can explore."""
    from repro.fuzz import generate, run_spec, scenario_seed

    stats = []
    for index in range(budget):
        spec = generate(scenario_seed(seed, index))
        stats.append(run_spec(spec))
    assert all(r.ok for r in stats)
    return stats


def run_fuzz_replay(iterations: int = 20, seed: int = 17):
    """Trace-format round trips: serialize one generated spec to
    canonical JSON and parse it back ``iterations`` times (the corpus
    replay loader's per-file cost, minus the run itself)."""
    from repro.fuzz import ScenarioSpec, generate

    spec = generate(seed)
    text = None
    for _ in range(iterations):
        text = spec.to_json()
        spec = ScenarioSpec.from_json(text)
    return text
