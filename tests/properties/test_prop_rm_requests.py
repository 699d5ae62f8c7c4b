"""Property: the Resource Manager's request map is what its records say.

``ResourceManager._requests`` and ``_signature`` read one ``tid →
GrantRequest`` map that only the ops changing a request write (admit,
exit, quiesce, wake, ``change_resource_list``).  After every op of a
drawn stream — a ``deferred_recompute`` batch and a crash-handler exit
included — the map must equal the requests rebuilt from ``_records``
from scratch, in tid order.  The memo must also decide as it did when
the signature was built per record: two consecutive states compare
equal under the map's signature exactly when they compare equal under
the per-record ``(tid, policy id, resource list, quiescent)`` tuples.
"""

from __future__ import annotations

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AdmissionError, MachineConfig, SimConfig, units
from repro.core.distributor import ResourceDistributor
from repro.core.grant_control import GrantRequest
from repro.core.resource_list import ResourceList, ResourceListEntry
from repro.tasks.base import Compute, TaskDefinition
from repro.workloads import grant_follower

OPS = ("admit", "exit", "quiesce", "wake", "relist", "batch", "crash", "none")


def from_scratch(manager) -> list[GrantRequest]:
    records = manager._records
    return [
        GrantRequest(
            thread_id=tid,
            policy_id=records[tid].thread.policy_id,
            resource_list=records[tid].definition.resource_list,
            quiescent=records[tid].quiescent,
        )
        for tid in sorted(records)
    ]


def per_record_signature(manager) -> tuple:
    """The memo signature as it was built before the map."""
    return (
        manager.policy_box.revision,
        manager.grant_control.capacity,
        tuple(
            (tid, r.thread.policy_id, r.definition.resource_list, r.quiescent)
            for tid, r in sorted(manager._records.items())
        ),
    )


def _crasher(ctx):
    yield Compute(units.ms_to_ticks(1))
    raise RuntimeError("corrupt bitstream")


class Stream:
    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.rd = ResourceDistributor(
            machine=MachineConfig.ideal(),
            sim=SimConfig(seed=seed),
            sanitize=True,
            sanitize_strict=True,
        )
        self.manager = self.rd.resource_manager
        self.names = itertools.count()
        self.signatures = (self.manager._signature(), per_record_signature(self.manager))

    def definition(self, name=None, body=grant_follower) -> TaskDefinition:
        rng = self.rng
        period = units.ms_to_ticks(rng.choice((5, 10, 20)))
        top = rng.choice((0.1, 0.2, 0.3))
        return TaskDefinition(
            name=name or f"s{next(self.names)}",
            resource_list=ResourceList(
                [
                    ResourceListEntry(period, max(1, round(period * rate)), body)
                    for rate in (top, top / 3, 0.01)
                ]
            ),
        )

    def check(self) -> None:
        manager = self.manager
        assert manager._requests() == from_scratch(manager)
        assert list(manager._grant_requests) == sorted(manager._records)
        now = (manager._signature(), per_record_signature(manager))
        before = self.signatures
        assert (now[0] == before[0]) == (now[1] == before[1])
        self.signatures = now

    def op(self, kind: str) -> None:
        rd, manager, rng = self.rd, self.manager, self.rng
        live = list(manager.admitted_ids())
        quiescent = [tid for tid in live if manager.is_quiescent(tid)]
        runnable = [tid for tid in live if tid not in quiescent]
        try:
            if kind == "admit":
                rd.admit(self.definition())
            elif kind == "crash":
                rd.admit(self.definition(body=_crasher))
            elif kind == "exit" and live:
                rd.exit_thread(rng.choice(live))
            elif kind == "quiesce" and runnable:
                rd.enter_quiescent(rng.choice(runnable))
            elif kind == "wake" and quiescent:
                rd.wake(rng.choice(quiescent))
            elif kind == "relist" and live:
                tid = rng.choice(live)
                manager.change_resource_list(tid, self.definition(rd.thread(tid).name))
        except AdmissionError:
            pass  # a denied minimum changes nothing

    def run(self, kinds) -> None:
        for kind in kinds:
            self.rd.run_for(units.ms_to_ticks(1))
            self.check()  # a crash-handler exit lands inside run_for
            if kind == "batch":
                with self.manager.deferred_recompute():
                    for inner in self.rng.sample(OPS[:5], 3):
                        self.op(inner)
                        self.check()
            else:
                self.op(kind)
            self.check()


class TestRequestMap:
    @given(
        seed=st.integers(min_value=0, max_value=100_000),
        kinds=st.lists(st.sampled_from(OPS), max_size=50),
    )
    @settings(max_examples=60, deadline=None)
    def test_map_equals_the_records_after_every_op(self, seed, kinds):
        stream = Stream(seed)
        stream.run(kinds)
        assert stream.rd.sanitizer.ok

    def test_a_stream_reaches_the_batch_and_the_crash_handler(self):
        stream = Stream(7)
        stream.run(["admit", "admit", "crash", "batch", "quiesce", "relist"] * 4 + ["none"] * 10)
        crashed = {tid for _, tid, _ in stream.rd.kernel.crashes}
        assert crashed and not crashed & set(stream.manager.admitted_ids())
        assert stream.rd.sanitizer.ok
