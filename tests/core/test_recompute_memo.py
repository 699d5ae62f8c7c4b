"""Grant-set recomputation and burst coalescing.

The Resource Manager computes a fresh grant set on every request and
remembers nothing but the previous result's ``Grant`` objects;
``deferred_recompute`` / ``admit_many`` coalesce admission bursts into
one computation.  These are the regression tests pinning down how many
computations an op and a burst actually cost.
"""

import dataclasses
import itertools
import random

import pytest

from repro import AdmissionError, MachineConfig, SimConfig, units
from repro.core.distributor import ResourceDistributor
from repro.core.grant_control import GrantController, GrantRequest
from repro.core.policy_box import PolicyBox
from repro.core.resource_list import ResourceList, ResourceListEntry
from repro.obs.events import ObsBus
from repro.tasks.base import TaskDefinition
from repro.workloads import grant_follower, single_entry_definition


def make_rd(**kwargs):
    return ResourceDistributor(
        machine=MachineConfig.ideal(), sim=SimConfig(seed=0), **kwargs
    )


def burst(count, rate=0.02):
    return [
        single_entry_definition(f"burst{i}", 10, rate) for i in range(count)
    ]


class TestBurstCoalescing:
    def test_sequential_admissions_recompute_per_task(self):
        rd = make_rd()
        for definition in burst(8):
            rd.admit(definition)
        assert rd.resource_manager.recompute_count == 8

    def test_admit_many_coalesces_to_one_recompute(self):
        rd = make_rd()
        threads = rd.admit_many(burst(8))
        assert len(threads) == 8
        assert rd.resource_manager.recompute_count == 1

    def test_batched_and_sequential_grants_agree(self):
        sequential = make_rd()
        for definition in burst(6):
            sequential.admit(definition)
        batched = make_rd()
        batched.admit_many(burst(6))
        a = sequential.resource_manager.last_result.grant_set
        b = batched.resource_manager.last_result.grant_set
        assert list(a.ids()) == list(b.ids())
        for tid in a.ids():
            assert a.get(tid).cpu_ticks == b.get(tid).cpu_ticks
            assert a.get(tid).period == b.get(tid).period

    def test_nested_deferral_recomputes_once_at_the_outermost_exit(self):
        rd = make_rd()
        manager = rd.resource_manager
        with manager.deferred_recompute():
            rd.admit(single_entry_definition("a", 10, 0.1))
            with manager.deferred_recompute():
                rd.admit(single_entry_definition("b", 10, 0.1))
            assert manager.recompute_count == 0
        assert manager.recompute_count == 1

    def test_clean_deferral_block_recomputes_nothing(self):
        rd = make_rd()
        with rd.resource_manager.deferred_recompute():
            pass
        assert rd.resource_manager.recompute_count == 0

    def test_mid_batch_denial_keeps_earlier_admissions(self):
        rd = make_rd()
        definitions = burst(2, rate=0.3) + [single_entry_definition("hog", 10, 0.9)]
        with pytest.raises(AdmissionError):
            rd.admit_many(definitions)
        manager = rd.resource_manager
        assert len(manager.admitted_ids()) == 2
        # The deferred recompute still ran on unwind, so the survivors
        # have grants.
        assert manager.recompute_count == 1
        assert manager.last_result.grant_set.ids() == set(manager.admitted_ids())

    def test_batch_runs_identically_to_sequential(self):
        """Whole-run equivalence: grants only activate at unallocated
        time, so coalescing the startup burst must not change the
        schedule."""
        a = make_rd()
        for definition in burst(5, rate=0.1):
            a.admit(definition)
        b = make_rd()
        b.admit_many(burst(5, rate=0.1))
        a.run_for(units.ms_to_ticks(60))
        b.run_for(units.ms_to_ticks(60))
        sa = [(s.thread_id, s.start, s.end, s.kind) for s in a.trace.segments]
        sb = [(s.thread_id, s.start, s.end, s.kind) for s in b.trace.segments]
        assert sa == sb


class TestMemoization:
    """There is no memo: every recompute request computes, audits and
    notifies, whether or not anything changed since the last one."""

    def test_unchanged_population_still_computes(self):
        rd = make_rd(sanitize=True, sanitize_strict=True)
        events = []
        bus = ObsBus()
        bus.subscribe(events.append)
        rd.resource_manager.obs = bus
        rd.admit(single_entry_definition("a", 10, 0.2))
        rd.admit(single_entry_definition("b", 10, 0.3))
        manager = rd.resource_manager
        before = manager.recompute_count
        audited = rd.sanitizer.grant_sets_checked
        previous = manager.last_result
        events.clear()
        manager._recompute()  # nothing changed since the admission
        result = manager.last_result
        assert manager.recompute_count == before + 1
        assert rd.sanitizer.grant_sets_checked == audited + 1
        assert [e.type for e in events] == ["grant-recompute"]
        assert result is not previous
        assert result.changed == frozenset()
        assert result.grant_set.ids() == previous.grant_set.ids()
        for grant in result.grant_set:
            assert grant is previous.grant_set[grant.thread_id]
        assert manager.memo_hits == 0

    def test_population_change_invalidates(self):
        rd = make_rd()
        rd.admit(single_entry_definition("a", 10, 0.2))
        rd.admit(single_entry_definition("b", 10, 0.2))
        assert rd.resource_manager.recompute_count == 2

    def test_quiescence_and_wake_invalidate(self):
        rd = make_rd()
        t = rd.admit(single_entry_definition("a", 10, 0.2))
        rd.admit(single_entry_definition("b", 10, 0.2))
        manager = rd.resource_manager
        base = manager.recompute_count
        rd.enter_quiescent(t.tid)
        rd.wake(t.tid)
        assert manager.recompute_count == base + 2

    def test_policy_revision_invalidates(self):
        rd = make_rd()
        a = rd.admit(single_entry_definition("a", 10, 0.2))
        b = rd.admit(single_entry_definition("b", 10, 0.2))
        manager = rd.resource_manager
        base = manager.recompute_count
        rd.set_policy_override(
            {a.policy_id: 30.0, b.policy_id: 40.0}
        )
        assert manager.recompute_count == base + 1
        rd.clear_policy_override({a.policy_id, b.policy_id})
        assert manager.recompute_count == base + 2


# -- the one grant cache and the `changed` contract --------------------------

STREAM_STEPS = 2000


def _levels(rng, name):
    """A three-level list: maxima overload the machine once half a
    dozen tasks run, minima keep two dozen admissible."""
    period = units.ms_to_ticks(rng.choice((10, 20, 40)))
    top = rng.choice((0.12, 0.2, 0.3))
    return TaskDefinition(
        name=name,
        resource_list=ResourceList(
            [
                ResourceListEntry(period, round(period * rate), grant_follower)
                for rate in (top, top / 3, 0.02 * rng.choice((0.5, 1.0)))
            ]
        ),
    )


def run_churn_stream(seed=5, steps=STREAM_STEPS, force_full_revisit=False, check=None):
    """Admit / exit / quiesce / wake / change_resource_list / override
    install-and-clear, one op per simulated ms, in alternating growth
    and shrink phases so the population crosses between underload (the
    fast path) and overload (the policy path) many times."""
    rd = make_rd(sanitize=True, sanitize_strict=True)
    if force_full_revisit:
        notify = rd.scheduler.notify_grant_set
        rd.scheduler.notify_grant_set = lambda result: notify(
            dataclasses.replace(result, changed=None)
        )
    manager = rd.resource_manager
    rng = random.Random(seed)
    names = itertools.count()
    override = None
    for step in range(steps):
        rd.run_for(units.ms_to_ticks(1))
        live = list(manager.admitted_ids())
        quiescent = [tid for tid in live if manager.usage(tid).quiescent]
        runnable = [tid for tid in live if tid not in quiescent]
        growing = (step // 125) % 2 == 0
        kind = rng.choice(
            ("admit", "admit", "wake", "wake", "exit", "quiesce", "relist", "override")
            if growing
            else ("exit", "exit", "quiesce", "quiesce", "admit", "wake", "relist", "override")
        )
        if kind == "admit" and len(live) < 24:
            rd.admit(_levels(rng, f"s{next(names)}"))
        elif kind == "exit" and live:
            rd.exit_thread(rng.choice(live))
        elif kind == "quiesce" and runnable:
            rd.enter_quiescent(rng.choice(runnable))
        elif kind == "wake" and quiescent:
            rd.wake(rng.choice(quiescent))
        elif kind == "relist" and live:
            tid = rng.choice(live)
            manager.change_resource_list(tid, _levels(rng, rd.thread(tid).name))
        elif kind == "override":
            if override is not None:
                rd.clear_policy_override(override)
                override = None
            elif runnable:
                ids = [rd.thread(tid).policy_id for tid in runnable]
                weights = [rng.choice((0.01, 1.0, 4.0)) for _ in ids]
                scale = 90.0 / sum(weights)
                rd.set_policy_override(
                    {pid: w * scale for pid, w in zip(ids, weights)}
                )
                override = set(ids)
        if check is not None:
            check(rd)
    return rd


class TestChangedContract:
    def test_changed_is_exact_and_grants_are_reused(self):
        state = {"previous": None, "computes": 0, "transitions": set(), "kept": 0}

        def check(rd):
            manager = rd.resource_manager
            result = manager.last_result
            if manager.recompute_count == state["computes"]:
                return  # the op changed no request
            state["computes"] = manager.recompute_count
            previous = state["previous"]
            state["previous"] = result
            live = len(manager.admitted_ids())
            assert len(manager.grant_control._grant_cache) <= 2 * live + 32
            if previous is None:
                return
            before = {g.thread_id: g for g in previous.grant_set}
            moved = set()
            for grant in result.grant_set:
                old = before.get(grant.thread_id)
                if (
                    old is None
                    or old.entry is not grant.entry
                    or old.entry_index != grant.entry_index
                ):
                    moved.add(grant.thread_id)
                else:
                    assert grant is old  # the identical object, not a twin
                    state["kept"] += 1
            assert result.changed == moved
            state["transitions"].add((previous.passes > 0, result.passes > 0))

        rd = run_churn_stream(check=check)
        assert rd.sanitizer.ok
        # Both regimes, and both crossings between them, with grants
        # carried across each.
        assert state["transitions"] == {
            (False, False), (False, True), (True, False), (True, True)
        }
        assert state["computes"] > STREAM_STEPS // 2
        assert state["kept"] > state["computes"]

    def test_same_entry_at_another_index_is_a_change(self):
        """Two lists may share an entry object at different positions;
        the cache must compare the index as well as the identity."""
        period = units.ms_to_ticks(10)
        shared = ResourceListEntry(period, round(period * 0.1), grant_follower)
        box = PolicyBox()
        controller = GrantController(0.96, box)
        alone = ResourceList([shared])
        below = ResourceList(
            [ResourceListEntry(period, round(period * 0.99), grant_follower), shared]
        )
        hog = GrantRequest(2, box.register_task("hog"), ResourceList(
            [ResourceListEntry(period, round(period * 0.8), grant_follower)]
        ))
        pid = box.register_task("t")
        first = controller.compute([GrantRequest(1, pid, alone), hog])
        second = controller.compute([GrantRequest(1, pid, below), hog])
        assert first.grant_set[1].entry is second.grant_set[1].entry
        assert (first.grant_set[1].entry_index, second.grant_set[1].entry_index) == (0, 1)
        assert second.changed == {1}
        assert second.grant_set[2] is first.grant_set[2]

    def test_an_activated_increase_in_flight_is_revisited(self):
        """Shrunk from ``cluster_rack(seed=5, nodes=2, drop_rate=0.1)``
        (node00, t = 29,709,037, the audio decoders ``stb02-audio`` and
        ``stb04-audio``): an increase the unallocated-time callback has
        handed to a running thread waits for its period boundary, and the
        next result does not list the thread in ``changed``.  A full
        revisit sends the increase back to pending activation, and so
        must the diff — only the in-flight set brings the thread into
        its work set.  Without it the thread's activation is one
        callback short, which no trace record shows (the obs stream's
        activation events do)."""

        def scenario(full_revisit):
            rd = make_rd(sanitize=True, sanitize_strict=True)
            scheduler = rd.scheduler
            if full_revisit:
                notify = scheduler.notify_grant_set
                scheduler.notify_grant_set = lambda result: notify(
                    dataclasses.replace(result, changed=None)
                )
            period = units.ms_to_ticks(30)
            riser = rd.admit(
                TaskDefinition(
                    name="riser",
                    resource_list=ResourceList(
                        [
                            ResourceListEntry(period, round(period * rate), grant_follower)
                            for rate in (0.4, 0.2)
                        ]
                    ),
                )
            )
            hog = rd.admit(single_entry_definition("hog", 10, 0.7))
            rd.admit(single_entry_definition("ticker", 5, 0.05))  # picks often
            rd.run_for(units.ms_to_ticks(5))
            assert riser.grant.entry_index == 1 and riser.in_period
            rd.exit_thread(hog.tid)  # the increase waits for unallocated time
            assert riser.tid in scheduler._pending_activation
            rd.run_for(units.ms_to_ticks(10))  # ... which comes: handed over
            assert riser.tid not in scheduler._pending_activation
            assert riser.has_pending_change
            assert riser.pending_grant.entry_index == 0 and riser.in_period
            late = rd.admit(single_entry_definition("late", 10, 0.05))
            assert rd.resource_manager.last_result.changed == {late.tid}
            return scheduler, riser

        def state(scheduler):
            return (
                {tid: g.entry_index for tid, g in scheduler._pending_activation.items()},
                scheduler.activation_count,
                [
                    (t.tid, t.pending_grant and t.pending_grant.entry_index, t.has_pending_change)
                    for t in scheduler.kernel.periodic_threads()
                ],
            )

        (diff, riser), (full, _) = scenario(False), scenario(True)
        assert state(diff) == state(full)
        assert diff._pending_activation[riser.tid].entry_index == 0

    def test_notify_by_diff_equals_notify_by_full_revisit(self):
        """``changed=None`` makes the Scheduler revisit every thread in
        either set — the reference semantics.  The diff must produce
        the identical run."""
        diff = run_churn_stream()
        full = run_churn_stream(force_full_revisit=True)
        assert diff.sanitizer.ok and full.sanitizer.ok
        assert diff.trace.segments == full.trace.segments
        assert diff.trace.switches == full.trace.switches
        assert diff.trace.deadlines == full.trace.deadlines
        assert diff.trace.grant_changes == full.trace.grant_changes
        assert len(diff.trace.grant_changes) > 100
