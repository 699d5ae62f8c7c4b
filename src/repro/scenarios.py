"""Canonical scenarios: the paper's experiments as one-call builders.

Each builder wires a ready-to-run :class:`ResourceDistributor` with the
exact task population of one of the paper's experiments (or a composite
like the set-top box).  They are the shared vocabulary between the CLI,
the examples, and downstream users who want a known-good starting
point::

    from repro.scenarios import figure5
    scenario = figure5()
    scenario.rd.run_for(units.ms_to_ticks(150))
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import units
from repro.config import ContextSwitchCosts, MachineConfig, SimConfig
from repro.core.distributor import ResourceDistributor
from repro.core.resource_list import ResourceList, ResourceListEntry
from repro.core.sporadic import SporadicServer
from repro.core.threads import SimThread
from repro.tasks.base import TaskDefinition
from repro.tasks.busyloop import busyloop_definition
from repro.workloads import grant_follower, greedy_worker


@dataclass
class Scenario:
    """A wired distributor plus the named threads and helper objects."""

    rd: ResourceDistributor
    threads: dict[str, SimThread] = field(default_factory=dict)
    extras: dict[str, object] = field(default_factory=dict)

    @property
    def trace(self):
        return self.rd.trace

    def run_for(self, ticks: int) -> "Scenario":
        self.rd.run_for(ticks)
        return self

    def names(self) -> dict[int, str]:
        """tid -> name map, for Gantt rendering."""
        return {t.tid: name for name, t in self.threads.items()}


def _machine(kind: str) -> MachineConfig:
    if kind == "ideal":
        return MachineConfig.ideal()
    if kind == "quiet":  # paper reserve, deterministic switches
        return MachineConfig(switch_costs=ContextSwitchCosts.zero())
    return MachineConfig()


def table4_trio(seed: int = 0, machine: str = "ideal", obs=None) -> Scenario:
    """Table 4 / Figure 3: modem + 3D graphics + MPEG decompression."""
    rd = ResourceDistributor(machine=_machine(machine), sim=SimConfig(seed=seed), obs=obs)
    specs = [
        ("Modem", 270_000, 27_000, grant_follower),
        ("3D", 275_300, 143_156, greedy_worker),
        ("MPEG", 810_000, 270_000, grant_follower),
    ]
    threads = {}
    for name, period, cpu, fn in specs:
        threads[name] = rd.admit(
            TaskDefinition(
                name=name,
                resource_list=ResourceList([ResourceListEntry(period, cpu, fn, name)]),
            )
        )
    return Scenario(rd=rd, threads=threads)


#: Table 5: the paper's seven ranking tables over policy ids 1-4, in
#: percent of the CPU.
TABLE5_POLICIES = (
    {1: 10, 2: 85},
    {1: 20, 3: 75},
    {1: 10, 4: 85},
    {1: 10, 2: 50, 3: 35},
    {1: 10, 2: 35, 4: 50},
    {1: 10, 3: 35, 4: 50},
    {1: 5, 2: 35, 3: 20, 4: 35},
)


def table5_policy_box():
    """Table 5: the example Policy Box, four tasks and seven policies."""
    from repro.core.policy_box import PolicyBox

    box = PolicyBox(capacity=0.96)
    for i in range(1, 5):
        box.register_task(f"Task {i}")
    for rankings in TABLE5_POLICIES:
        box.set_default(dict(rankings))
    return box


def faceoff(seed: int, duration: int) -> dict[str, tuple[int, float, float]]:
    """Section 3.4: one overload under the RD and the five baselines.

    Three tasks each want 50 % of a 10 ms period (and can shed in 10 %
    steps where the system lets them) on the default machine for
    ``duration`` ticks.  Returns ``{scheduler: (admitted, miss_rate,
    useful)}``, the Resource Distributor first; ``useful`` is the
    admitted tasks' busy share of the run.
    """
    from repro.baselines import (
        NaiveEdfSystem,
        RateMonotonicSystem,
        ReservesSystem,
        RialtoSystem,
        SmartSystem,
    )
    from repro.errors import AdmissionError
    from repro.metrics import miss_rate
    from repro.workloads import single_entry_definition

    results = {}
    for cls in (
        ResourceDistributor,
        NaiveEdfSystem,
        SmartSystem,
        ReservesSystem,
        RialtoSystem,
        RateMonotonicSystem,
    ):
        system = cls(machine=MachineConfig(), sim=SimConfig(seed=seed))
        threads = []
        for i in range(3):
            # Only the RD takes a list of levels to shed through; the
            # baselines get the 50 % entry alone.
            if cls is ResourceDistributor:
                definition = busyloop_definition(f"t{i}")
            else:
                definition = single_entry_definition(f"t{i}", 10, 0.5)
            try:
                threads.append(system.admit(definition))
            except AdmissionError:
                pass
        system.run_for(duration)
        useful = sum(system.trace.busy_ticks(t.tid) for t in threads) / duration
        results[cls.__name__] = (len(threads), miss_rate(system.trace), useful)
    return results


def figure4(
    seed: int = 0, fixed: bool = False, machine: str = "calibrated", obs=None
) -> Scenario:
    """Figure 4: two producers, two data-management threads, a greedy
    Sporadic Server.  ``fixed=True`` applies the paper's suggested fix
    (block on an event instead of spinning)."""
    from repro.tasks.producer_consumer import Figure4Workload

    rd = ResourceDistributor(machine=_machine(machine), sim=SimConfig(seed=seed), obs=obs)
    server = SporadicServer(rd, greedy=True)
    workload = Figure4Workload(fixed=fixed)
    threads = dict(
        zip(["p7", "dm8", "p9", "dm10"], (rd.admit(d) for d in workload.definitions()))
    )
    threads["SporadicServer"] = server.thread
    return Scenario(rd=rd, threads=threads, extras={"workload": workload, "server": server})


def figure5(seed: int = 0, stagger_ms: float = 20.0, obs=None) -> Scenario:
    """Table 6 / Figure 5: five BusyLoop threads admitted 20 ms apart."""
    rd = ResourceDistributor(machine=_machine("quiet"), sim=SimConfig(seed=seed), obs=obs)
    server = SporadicServer(rd, greedy=True)
    scenario = Scenario(rd=rd, threads={"SporadicServer": server.thread})
    scenario.extras["server"] = server

    def admit(name: str) -> None:
        scenario.threads[name] = rd.admit(busyloop_definition(name))

    admit("thread2")
    for i in range(1, 5):
        rd.at(units.ms_to_ticks(stagger_ms * i), lambda n=f"thread{i + 2}": admit(n))
    return scenario


def settop(
    seed: int = 0, ring_ms: float = 300.0, machine: str = "calibrated", obs=None
) -> Scenario:
    """Section 5.3: DVD video+audio, teleconference renderer, and a
    quiescent modem that answers the phone at ``ring_ms``."""
    from repro.tasks.ac3 import Ac3Decoder
    from repro.tasks.graphics3d import Renderer3D
    from repro.tasks.modem import Modem
    from repro.tasks.mpeg import MpegDecoder

    rd = ResourceDistributor(machine=_machine(machine), sim=SimConfig(seed=seed), obs=obs)
    mpeg = MpegDecoder("DVD-video")
    ac3 = Ac3Decoder("DVD-audio")
    renderer = Renderer3D("Teleconf", use_scaler=False)
    modem = Modem("Modem")
    threads = {
        "DVD-video": rd.admit(mpeg.definition()),
        "DVD-audio": rd.admit(ac3.definition()),
        "Teleconf": rd.admit(renderer.definition()),
        "Modem": rd.admit(modem.definition(start_quiescent=True)),
    }
    rd.at(units.ms_to_ticks(ring_ms), lambda: rd.wake(threads["Modem"].tid), "ring")
    return Scenario(
        rd=rd,
        threads=threads,
        extras={"mpeg": mpeg, "ac3": ac3, "renderer": renderer, "modem": modem},
    )


def av_pipeline(seed: int = 61, fixed: bool = True, obs=None) -> Scenario:
    """The §6.1 overhead scenario: MPEG + AC3 + data threads + server."""
    from repro.tasks.ac3 import Ac3Decoder
    from repro.tasks.mpeg import MpegDecoder
    from repro.tasks.producer_consumer import Figure4Workload

    rd = ResourceDistributor(machine=_machine("calibrated"), sim=SimConfig(seed=seed), obs=obs)
    server = SporadicServer(rd, greedy=True)
    mpeg = MpegDecoder()
    ac3 = Ac3Decoder()
    workload = Figure4Workload(fixed=fixed)
    defs = workload.definitions()
    threads = {
        "MPEG": rd.admit(mpeg.definition()),
        "AC3": rd.admit(ac3.definition()),
        "data8": rd.admit(defs[1]),
        "data10": rd.admit(defs[3]),
        "SporadicServer": server.thread,
    }
    return Scenario(
        rd=rd, threads=threads, extras={"mpeg": mpeg, "ac3": ac3, "workload": workload}
    )


def cluster_rack(
    seed: int = 0,
    nodes: int = 4,
    sessions: int | None = None,
    policy: str = "aimd",
    drop_rate: float = 0.0,
    latency_us: float = 100.0,
    horizon_sec: float = 1.0,
    migrate: bool = True,
    sanitize: bool = True,
    obs=None,
    telemetry: bool = False,
    obs_pipeline: bool = False,
    max_chunk_events: int | None = None,
):
    """A rack of set-top boxes behind one admission broker.

    ``sessions`` A/V sessions (an MPEG video decoder plus an AC3 audio
    decoder each, both with their real multi-level Table 2 resource
    lists) arrive staggered across the run; a fraction of the early
    sessions hang up partway through, so capacity churns and the
    broker's load-feedback view matters.  The default session count
    (3 per node) pushes the rack into the degraded-QOS regime where
    grant control, AIMD weighting, and migration all have work to do.

    Returns a ready-to-run
    :class:`repro.cluster.simulation.ClusterSimulation`.
    """
    from repro.cluster import BrokerConfig, ClusterSimulation
    from repro.tasks.ac3 import Ac3Decoder
    from repro.tasks.mpeg import MpegDecoder

    if sessions is None:
        sessions = 3 * nodes
    horizon = units.sec_to_ticks(horizon_sec)
    sim = ClusterSimulation(
        node_count=nodes,
        seed=seed,
        policy=policy,
        horizon=horizon,
        latency_ticks=units.us_to_ticks(latency_us),
        jitter_ticks=units.us_to_ticks(latency_us) // 2,
        drop_rate=drop_rate,
        machine=_machine("quiet"),
        broker_config=BrokerConfig(migrate=migrate),
        sanitize=sanitize,
        obs=obs,
        telemetry=telemetry,
        obs_pipeline=obs_pipeline,
        max_chunk_events=max_chunk_events,
    )
    # Stagger arrivals over the first third of the run; every fourth
    # session hangs up two thirds of the way through (churn).
    stagger = max(1, (horizon // 3) // max(1, sessions))
    for i in range(sessions):
        arrival = units.ms_to_ticks(1) + i * stagger
        video = MpegDecoder(f"stb{i:02d}-video")
        audio = Ac3Decoder(f"stb{i:02d}-audio")
        sim.submit_at(arrival, video.name, video.definition())
        sim.submit_at(arrival, audio.name, audio.definition())
        if i % 4 == 0:
            depart = (2 * horizon) // 3 + i * stagger // 4
            sim.withdraw_at(depart, video.name)
            sim.withdraw_at(depart, audio.name)
    return sim


def fuzzed(seed: int = 0, cluster: bool = False):
    """The fuzz generator's scenario for ``seed``, wired and ready.

    The same mix ``python -m repro fuzz`` would run for that scenario
    seed, as a first-class builder: handy for poking at a reproducer's
    neighborhood interactively.  Core seeds return a :class:`Scenario`
    (threads admitted at t=0 are in ``threads``; later arrivals are
    scripted on the event queue); cluster seeds return a ready-to-run
    :class:`repro.cluster.simulation.ClusterSimulation`.
    """
    from repro.fuzz import generate
    from repro.fuzz.runner import _CoreRun, build_cluster

    spec = generate(seed, cluster=cluster)
    if cluster:
        return build_cluster(spec)
    run = _CoreRun(spec)
    threads = {
        name: run.rd.kernel.threads[tid] for name, tid in run._tids.items()
    }
    return Scenario(rd=run.rd, threads=threads, extras={"spec": spec, "run": run})


def dual_stream(
    seed: int = 0, skew_ppm: float = 2_000.0, horizon_sec: float = 10.0, obs=None
) -> Scenario:
    """Two live MPEG transport streams: the first defines the timebase,
    the second drifts and must phase-lock in software (§5.4)."""
    from repro.tasks.mpeg import MpegDecoder
    from repro.tasks.stream import LiveMpegDecoder, TransportStream

    rd = ResourceDistributor(machine=_machine("ideal"), sim=SimConfig(seed=seed), obs=obs)
    primary = MpegDecoder("stream1")
    stream2 = TransportStream("stream2", skew_ppm=skew_ppm)
    decoder2 = LiveMpegDecoder(stream2, synchronize=True)
    threads = {
        "stream1": rd.admit(primary.definition()),
        "stream2": rd.admit(decoder2.definition()),
    }
    stream2.attach(rd.kernel, units.sec_to_ticks(horizon_sec))
    return Scenario(
        rd=rd,
        threads=threads,
        extras={"primary": primary, "stream2": stream2, "decoder2": decoder2},
    )


#: The single-machine scenarios ``repro report`` and ``repro run`` know
#: by name; every builder takes ``seed=`` and ``obs=``.
SCENARIOS = {
    "table4": table4_trio,
    "figure4": figure4,
    "figure5": figure5,
    "settop": settop,
    "av": av_pipeline,
    "dual-stream": dual_stream,
}
