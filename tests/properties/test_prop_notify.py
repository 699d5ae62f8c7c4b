"""Property: a notification that revisits what can move is a full revisit.

``RDScheduler.notify_grant_set`` revisits the threads a result lists as
changed, those entering or leaving the set, the activated increases
still in flight and the pending increases of running threads; a
hand-built result (``changed=None``) revisits every thread in either
set and every live periodic thread, the reference semantics.  Two
distributors run the same drawn stream of ops, one forcing every
notification to the reference.  After every op their scheduler state
must agree — each thread's pending grant, pending-change flag and
grant, the pending-activation grants, the activation count and the two
revisit sets — and so must the whole trace at the end.

The streams cut simulated time at drawn points and run bodies that
leave unallocated time, so activations hand increases to running
threads, and threads holding a pending increase cross period
boundaries, go quiescent or exit between notifications.
:class:`TestReducedRevisitWitness` pins a stream that reaches each of
those.
"""

from __future__ import annotations

import dataclasses
import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AdmissionError, MachineConfig, SimConfig, units
from repro.core.distributor import ResourceDistributor
from repro.core.resource_list import ResourceList, ResourceListEntry
from repro.core.threads import STATE_EXITED
from repro.tasks.base import Compute, DonePeriod, TaskDefinition
from repro.workloads import grant_follower

OPS = ("admit", "admit", "exit", "quiesce", "wake", "relist", "none")


def half_worker(ctx):
    """Uses half of each grant, so unallocated time comes every period
    and the activation callback runs."""
    yield Compute(max(1, ctx.grant.cpu_ticks // 2))
    yield DonePeriod()


def _full_revisit(rd: ResourceDistributor) -> None:
    notify = rd.scheduler.notify_grant_set
    rd.scheduler.notify_grant_set = lambda result: notify(
        dataclasses.replace(result, changed=None)
    )


def _index(grant):
    return None if grant is None else grant.entry_index


def scheduler_state(rd: ResourceDistributor):
    scheduler = rd.scheduler
    return (
        sorted(
            (tid, grant.entry_index)
            for tid, grant in scheduler._pending_activation.items()
        ),
        scheduler.activation_count,
        sorted(scheduler._activated),
        sorted(scheduler._pending_increases),
        [
            (
                t.tid,
                t.state,
                _index(t.grant),
                _index(t.pending_grant),
                t.has_pending_change,
            )
            for t in rd.kernel.periodic_threads()
        ],
    )


class Stream:
    """One distributor driven by a seeded op stream."""

    def __init__(self, seed: int, ideal: bool, full: bool) -> None:
        machine = MachineConfig.ideal() if ideal else MachineConfig()
        self.rd = ResourceDistributor(
            machine=machine,
            sim=SimConfig(seed=seed),
            sanitize=True,
            sanitize_strict=True,
        )
        if full:
            _full_revisit(self.rd)
        self.rng = random.Random(seed)
        self.names = itertools.count()

    def definition(self, name=None) -> TaskDefinition:
        rng = self.rng
        period = units.ms_to_ticks(rng.choice((2, 3, 5, 8)))
        top = rng.choice((0.15, 0.25, 0.4))
        body = rng.choice((grant_follower, half_worker))
        return TaskDefinition(
            name=name or f"n{next(self.names)}",
            resource_list=ResourceList(
                [
                    ResourceListEntry(period, max(1, round(period * rate)), body)
                    for rate in (top, top / 2, 0.02)
                ]
            ),
        )

    def pick(self, tids: list[int]) -> int:
        """A drawn tid, half the time one whose increase is in flight
        or pending, when there is one."""
        scheduler = self.rd.scheduler
        moving = sorted(
            (scheduler._activated | scheduler._pending_increases).intersection(tids)
        )
        if moving and self.rng.random() < 0.5:
            return self.rng.choice(moving)
        return self.rng.choice(tids)

    def op(self, kind: str, run_ticks: int) -> None:
        rd, rng = self.rd, self.rng
        rd.run_for(run_ticks)
        manager = rd.resource_manager
        live = list(manager.admitted_ids())
        quiescent = [tid for tid in live if manager.usage(tid).quiescent]
        runnable = [tid for tid in live if tid not in quiescent]
        try:
            if kind == "admit" and len(live) < 12:
                rd.admit(self.definition())
            elif kind == "exit" and live:
                rd.exit_thread(self.pick(live))
            elif kind == "quiesce" and runnable:
                rd.enter_quiescent(self.pick(runnable))
            elif kind == "wake" and quiescent:
                rd.wake(rng.choice(quiescent))
            elif kind == "relist" and live:
                tid = rng.choice(live)
                manager.change_resource_list(tid, self.definition(rd.thread(tid).name))
        except AdmissionError:
            pass  # a denied minimum changes nothing


def check_sets(rd: ResourceDistributor) -> None:
    """No revisit set keeps a tid whose thread exited, and increases
    wait in pending activation."""
    scheduler = rd.scheduler
    threads = rd.kernel.threads
    for tid in scheduler._activated | scheduler._pending_increases:
        assert threads[tid].state is not STATE_EXITED
    assert scheduler._pending_increases <= scheduler._pending_activation.keys()
    assert not scheduler._activated & scheduler._pending_activation.keys()


def run_pair(seed: int, ideal: bool, steps, watch=None):
    """Run ``steps`` on a reduced and a full-revisit distributor in
    lockstep; ``watch(rd)`` may wrap the reduced one's scheduler."""
    reduced = Stream(seed, ideal, full=False)
    full = Stream(seed, ideal, full=True)
    if watch is not None:
        watch(reduced.rd)
    for kind, run_ticks in steps:
        reduced.op(kind, run_ticks)
        full.op(kind, run_ticks)
        assert scheduler_state(reduced.rd) == scheduler_state(full.rd)
        check_sets(reduced.rd)
    for stream in (reduced, full):
        assert stream.rd.sanitizer.ok
    a, b = reduced.rd.trace, full.rd.trace
    assert a.segments == b.segments
    assert a.switches == b.switches
    assert a.deadlines == b.deadlines
    assert a.grant_changes == b.grant_changes


steps = st.lists(
    st.tuples(
        st.sampled_from(OPS),
        st.integers(min_value=1, max_value=units.ms_to_ticks(6)),
    ),
    max_size=60,
)


class TestReducedRevisitIsTheFullRevisit:
    @given(
        seed=st.integers(min_value=0, max_value=100_000),
        ideal=st.booleans(),
        steps=steps,
    )
    @settings(max_examples=80, deadline=None)
    def test_state_after_every_op_and_the_run_agree(self, seed, ideal, steps):
        run_pair(seed, ideal, steps)


class TestReducedRevisitWitness:
    """A fixed stream that reaches each class the reduced revisit has
    to get right: an activated increase revisited in flight, a pending
    increase whose thread crossed a boundary between notifications, and
    a pending increase whose thread went quiescent or exited."""

    def test_the_stream_reaches_every_moving_class(self):
        seen = {"in-flight": 0, "crossed": 0, "quiesced": 0, "exited": 0}

        def watch(rd):
            scheduler = rd.scheduler
            threads = rd.kernel.threads
            notify = scheduler.notify_grant_set
            filed: dict[int, int] = {}

            def watched(result):
                seen["in-flight"] += len(scheduler._activated)
                for tid in scheduler._pending_increases:
                    thread = threads[tid]
                    if thread.period_index != filed[tid]:
                        seen["crossed"] += 1
                    if thread.pending_state is STATE_EXITED:
                        seen["exited"] += 1
                    elif thread.pending_state is not None:
                        seen["quiesced"] += 1
                notify(result)
                filed.clear()
                for tid in scheduler._pending_increases:
                    filed[tid] = threads[tid].period_index

            scheduler.notify_grant_set = watched

        rng = random.Random(3)
        plan = [
            (rng.choice(OPS), rng.randint(1, units.ms_to_ticks(6)))
            for _ in range(400)
        ]
        run_pair(3, True, plan, watch)
        assert all(seen.values()), seen
