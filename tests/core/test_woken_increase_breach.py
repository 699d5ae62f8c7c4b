"""A woken thread is never retired to quiescent: the breach once open here.

On the ideal machine: admit ``a`` (0.6 / 0.3 of a 20 ms period) and
``b`` (0.7 of 40 ms), run 3 ms, quiesce ``a``, relist ``b`` to 0.4,
then wake ``a``.  The wake's grant set gives ``a`` its larger entry.
``RDScheduler.notify_grant_set``'s increase branch files that grant for
activation; it used to leave the held removal the quiesce set
(``pending_grant=None``, ``has_pending_change=True``), so with no
unallocated time before ``a``'s boundary the boundary retired the
awake, admitted thread at t = 540,000 ("grant removed (quiescent)") and
``a`` waited for a new "first grant" at 918,000.  The branch now clears
that removal: ``a`` keeps its grant through the boundary.
"""

from __future__ import annotations

from repro import MachineConfig, SimConfig, units
from repro.core.distributor import ResourceDistributor
from repro.core.resource_list import ResourceList, ResourceListEntry
from repro.tasks.base import TaskDefinition
from repro.workloads import grant_follower


def definition(name: str, period_ms: float, *rates: float) -> TaskDefinition:
    period = units.ms_to_ticks(period_ms)
    entries = [
        ResourceListEntry(period, round(period * rate), grant_follower) for rate in rates
    ]
    return TaskDefinition(name=name, resource_list=ResourceList(entries))


def test_a_woken_thread_is_never_retired_to_quiescent():
    rd = ResourceDistributor(machine=MachineConfig.ideal(), sim=SimConfig(seed=0))
    a = rd.admit(definition("a", 20, 0.6, 0.3))
    b = rd.admit(definition("b", 40, 0.7))
    rd.run_for(units.ms_to_ticks(3))
    rd.enter_quiescent(a.tid)
    rd.resource_manager.change_resource_list(b.tid, definition("b", 40, 0.4))
    rd.wake(a.tid)
    rd.run_for(units.ms_to_ticks(60))
    assert not rd.resource_manager.usage(a.tid).quiescent
    removals = [
        g.time
        for g in rd.trace.grant_changes
        if g.thread_id == a.tid and g.reason == "grant removed (quiescent)"
    ]
    assert removals == []
