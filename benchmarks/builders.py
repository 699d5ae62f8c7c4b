"""Scenario builders and the calibration loop the pytest benches share.

Every builder constructs a deterministic, seeded scenario; the
``run_*`` variants drive it to completion and return the system so the
caller can assert on its final state.  Kept beside the callers (and
outside the frozen ``benchmarks/e2e``): the §6.3 table bench and the
two overhead gates are the only readers.
"""

from __future__ import annotations

from repro import units
from repro.config import MachineConfig, SimConfig
from repro.core.distributor import ResourceDistributor
from repro.core.grant_control import GrantController, GrantRequest
from repro.core.policy_box import PolicyBox
from repro.core.resource_list import ResourceList, ResourceListEntry
from repro.tasks.base import TaskDefinition
from repro.workloads import grant_follower, single_entry_definition

#: Iterations of the calibration loop: ~20 ms of pure Python on a
#: current machine — long enough to swamp timer granularity, short
#: enough to repeat.
CALIBRATION_ITERATIONS = 200_000


def calibration_loop(iterations: int = CALIBRATION_ITERATIONS) -> int:
    """A fixed, allocation-free integer workload (an LCG): the unit of
    machine speed the overhead gates express a cost in."""
    acc = 1
    for _ in range(iterations):
        acc = (acc * 1103515245 + 12345) & 0x7FFFFFFF
    return acc


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


# -- the overhead gates ------------------------------------------------------


def run_figure5(ms: float = 400, seed: int = 11, prof: bool = False):
    """The Figure 5 load-shedding staircase, unobserved; ``prof=True``
    wires a :class:`~repro.obs.prof.phases.PhaseProfiler` into every
    hook slot, for the profiler-overhead gate."""
    from repro.scenarios import figure5

    scenario = figure5(seed=seed)
    if prof:
        from repro.obs.prof import PhaseProfiler

        scenario.rd.attach_prof(PhaseProfiler())
    return scenario.run_for(units.ms_to_ticks(ms))


def drive_hook_sites(obs, sites: int) -> None:
    """Visit ``sites`` kernel hook sites, isolated from scenario control
    flow: each is the ``if self.obs:`` guard every emitting site uses,
    then (bus truthy) the scalar emitter the kernel would call.  The mix
    follows the stream a session records on Figure 5 — switches and
    period closes about evenly, an activation now and then."""
    for i in range(sites):
        if not obs:
            continue
        slot = i % 16
        if slot == 15:
            obs.emit_activation(i * 27, 2)
        elif slot & 1:
            obs.emit_period_close(
                i * 27, slot, i >> 4, i * 27 - 270, i * 27 - 27, 270, 270,
                False, False,
            )
        else:
            obs.emit_switch(i * 27, slot, (slot + 1) & 7, "voluntary", 54)
